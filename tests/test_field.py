import pytest

from phangeo.field import _modulus, make_field, prime_power


def test_make_field_errors():
    with pytest.raises(ValueError):
        make_field(4, 1)  # non-prime characteristic
    with pytest.raises(ValueError):
        make_field(3, 1, 2)  # no order-2 automorphism of a prime field
    with pytest.raises(ValueError):
        make_field(2, 3, 2)  # odd degree
    with pytest.raises(ValueError):
        make_field(5, 0)


def test_prime_field_basics():
    f2 = make_field(2, 1)
    assert f2.q == 2
    assert f2.sigma_order == 1 and f2.sigma(1) == 1
    f5 = make_field(5, 1)
    assert f5.mul(2, 3) == 1  # 6 mod 5
    assert f5.inv(3) == 2 and f5.mul(3, f5.inv(3)) == 1
    f7 = make_field(7, 1)
    assert f7.inv(3) == 5  # 3*5 = 15 = 1 mod 7
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)


def test_deterministic_moduli():
    # first irreducible monic polynomial in the documented enumeration order
    assert make_field(2, 2, 2).modulus == (1, 1, 1)       # x^2+x+1
    assert make_field(3, 2, 2).modulus == (1, 0, 1)       # x^2+1
    assert make_field(2, 4, 2).modulus == (1, 1, 0, 0, 1)  # x^4+x+1
    assert make_field(5, 2, 2).modulus == (2, 0, 1)       # x^2+2
    assert make_field(3, 3).modulus == (1, 2, 0, 1)       # x^3+2x+1


def _monic(p: int, k: int) -> list[tuple[int, ...]]:
    """Every monic polynomial of degree k over F_p, constant term first, in
    the order of the integer encoding of its lower coefficients."""
    return [tuple((enc // p**i) % p for i in range(k)) + (1,) for enc in range(p**k)]


def _product(a, b, p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def test_modulus_is_the_first_irreducible_for_every_q_up_to_1024():
    """Against a brute-force oracle: a monic polynomial is reducible iff it
    is the product of two monic polynomials of lower degree."""
    for q in range(4, 1025):
        pe = prime_power(q)
        if pe is None or pe[1] < 2:
            continue
        p, e = pe
        reducible = {_product(a, b, p) for i in range(1, e // 2 + 1)
                     for a in _monic(p, i) for b in _monic(p, e - i)}
        assert _modulus(p, e) == next(f for f in _monic(p, e) if f not in reducible), q


def test_f4_structure():
    f4 = make_field(2, 2, 2)
    w = f4.from_coeffs((0, 1))  # the generator x
    assert f4.mul(w, w) == f4.add(w, 1)  # x^2 = x+1 mod x^2+x+1
    assert f4.sigma(w) == f4.mul(w, w)   # Frobenius x -> x^2
    assert f4.q == 4


def test_field_axioms_exhaustive():
    for (p, e, so) in [(2, 1, 1), (3, 1, 1), (2, 2, 2), (5, 1, 1), (3, 2, 2), (7, 1, 1)]:
        f = make_field(p, e, so)
        els = list(range(f.q))
        for a in els:
            assert f.add(a, 0) == a and f.mul(a, 1) == a
            assert f.add(a, f.neg(a)) == 0
            if a != 0:
                assert f.mul(a, f.inv(a)) == 1
        for a in els:
            for b in els:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
        if f.q <= 9:
            for a in els:
                for b in els:
                    for c in els:
                        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)


def test_sigma_is_an_involutive_automorphism():
    for (p, e) in [(2, 2), (3, 2), (2, 4), (5, 2), (3, 4)]:
        f = make_field(p, e, 2)
        els = list(range(f.q))
        for a in els:
            assert f.sigma(f.sigma(a)) == a
        for a in els:
            for b in els:
                assert f.sigma(f.add(a, b)) == f.add(f.sigma(a), f.sigma(b))
                assert f.sigma(f.mul(a, b)) == f.mul(f.sigma(a), f.sigma(b))
        # fixed field has exactly sqrt(q) elements
        assert len(f.fixed_elements()) == f.sqrt_q


def test_identity_sigma_fixes_everything():
    f9 = make_field(3, 2, 1)
    assert all(f9.sigma(a) == a for a in range(f9.q))
    assert f9 != make_field(3, 2, 2)  # sigma is part of the field identity


def test_coeff_roundtrip():
    f27 = make_field(3, 3)
    for a in range(f27.q):
        cs = f27.coeffs(a)
        assert len(cs) == 3
        assert f27.from_coeffs(cs) == a
    with pytest.raises(ValueError):
        f27.from_coeffs((1, 2))
    with pytest.raises(ValueError):
        f27.from_coeffs((3, 0, 0))


def test_enumeration_is_deterministic_zero_first():
    """The elements are the ints range(q), each with a coefficient vector
    of its own, and 0 is the zero element."""
    f9 = make_field(3, 2, 2)
    assert len({f9.coeffs(a) for a in range(f9.q)}) == 9
    assert f9.coeffs(0) == (0, 0) and all(f9.add(a, 0) == a for a in range(f9.q))


def test_prime_power():
    assert [q for q in range(1, 33) if prime_power(q)] == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]
    assert prime_power(1) is None and prime_power(36) is None
    assert prime_power(81) == (3, 4) and prime_power(49) == (7, 2)
    primes = [p for p in range(2, 5001) if all(p % d for d in range(2, p))]
    powers = {p**e: (p, e) for p in primes for e in range(1, 13) if p**e <= 5000}
    assert all(prime_power(q) == powers.get(q) for q in range(5001))
    assert prime_power(2**20) == (2, 20) and prime_power(3**12) == (3, 12)
    assert prime_power(1_000_003) == (1_000_003, 1)


def _poly_mul(field, a, b):
    """a*b by schoolbook multiplication of the coefficient vectors modulo
    the field's modulus, with neither log tables nor lookup tables."""
    p, e, mod = field.p, field.e, field.modulus
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(field.coeffs(a)):
        for j, y in enumerate(field.coeffs(b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for d in range(2 * e - 2, e - 1, -1):  # the modulus is monic of degree e
        c = prod[d]
        for i, m in enumerate(mod):
            prod[d - e + i] = (prod[d - e + i] - c * m) % p
    return field.from_coeffs(prod[:e])


@pytest.mark.parametrize("p,e,sigma", [(2, 1, 1), (3, 1, 1), (2, 2, 2), (5, 1, 1),
                                       (3, 2, 2), (5, 2, 2), (2, 9, 1)])
def test_lookup_tables_match_the_methods(p, e, sigma):
    """mul_table against Field.mul and schoolbook multiplication, and the
    other tables against their methods: exhaustively up to q = 25, on a
    sample for F_2^9, which lies above _ADD_TABLE_LIMIT and computes each
    entry on lookup."""
    import random

    field = make_field(p, e, sigma)
    q = field.q
    if q <= 25:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(9)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(3000)]
    for a, b in pairs:
        assert field.mul_table[a][b] == field.mul(a, b) == _poly_mul(field, a, b)
        assert field.add_table[a][b] == field.add(a, b)
        if p == 2:
            assert field.add_table[a][b] == a ^ b
    for a in range(q):
        assert field.neg_table[a] == field.neg(a) and field.sigma_table[a] == field.sigma(a)
        if a:
            assert field.inv_table[a] == field.inv(a)
