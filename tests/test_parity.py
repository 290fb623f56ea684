"""Report parity: the sha256 and exit code of reports that must not change.

The pins were taken from the reports of the tree they were introduced in.
A change that alters one of these reports on purpose updates its pin and
says so in CHANGES.md; any other difference is a regression.  The runs
cover every command on the bundled specs (``--force`` exactly where the
sufficient bound fails), the negative control of ``filtration-verify`` on
six specs (t0_q5_dim3, whose Y_0 has homology, two with an empty Y_0,
t0_q3_dim4, chamber_q2_dim5 and family2_q11_dim3), a bounds table and ``lemma-tests --seed 0``, which
drives form extension, projection forms, residues and restricted families
through perps, radicals and meets, in process, in a few seconds.  Each run
goes through the test session's ``cli_report``, so ``tests/test_cli.py``
checks the values of the chamber F_5^4 reports on the same runs.
t0_q3_dim4, standard-form F_3^4 out of bound (2^3*1 = 8 < q = 3 fails),
is the pinned n = 3 spec whose stages fail: ``star_boundary_sphericity``
at stage 1 and ``mayer_vietoris_rank_balance`` at stage 3, and six checks
across Y_0 and stages 1-3 under the negative control.  chamber_q2_dim5,
chamber F_2^5 out of bound (2^3*1 = 8 < q = 2 fails), is the one bundled
complex of dimension 3, so its reports are the pins that cover a 3-cell
of a reduction, whose faces the engine reaches through two extensions.
The negative control of family2_q11_dim3 is the one pinned run whose
check (d) gives a witness on a family of two specs: its pivot is
degenerate for spec 1 alone, and the witness names spec 1, so the pin
covers the order in which ``delta_restriction`` tests the residues below U
and the pivot.
"""

import hashlib
from pathlib import Path

import pytest

SPECS = Path(__file__).resolve().parent.parent / "specs"
# the bundled specs outside the sufficient bound
FORCED = {"t0_q4_dim3", "t0_q3_dim4", "chamber_q2_dim5"}

PINS = {
    "build chamber_q3_dim3": (0, "ebbd5f96d3f6f0f1c7423641fc272b67792f16763ea5030121ce703208116977"),
    "homology chamber_q3_dim3": (0, "0d165e0b60c7e7f5e7acda8eb96a979087305f0dbf2b361f9354d988d43a7ef4"),
    "cm-check chamber_q3_dim3": (0, "a9ab443183cbbe8d3babd26ce550718421c20265553739ffba4c36bafea1f426"),
    "filtration-verify chamber_q3_dim3": (0, "35f9388c60ca6619d12ec2f0156a3e4f9743624c0c9815fb28e0676c88a7307a"),
    "build family2_q11_dim3": (0, "b9449d02a04ffab9916ff107ba86a14baa2b8a8c62951cc57c151ba17507d7ac"),
    "homology family2_q11_dim3": (0, "4aaa0042f12b932d87d618c2389733f6917feb9a3b457090763181d8dadd023f"),
    "cm-check family2_q11_dim3": (0, "cfa3244c2233524f30d3aa1c95b1e68dc4fefd81284e4ef4ed2393848af65330"),
    "filtration-verify family2_q11_dim3": (0, "c1b74fbe76df034b53060f9238937129bbc18e97b3a165d86d237b61d30994f8"),
    "build family2_q7_dim2": (0, "c8586ba98ac3f32f40d25e8a92df2a8f256001e9928f7122c9db19fc53ea69b7"),
    "homology family2_q7_dim2": (0, "8a2c557481c6e8a42832a90fd624379fc8a855e6a3853e3b91ba2de1cf534ea5"),
    "cm-check family2_q7_dim2": (0, "68ad392f0cf1b3d9b9e127d0f2bb266c1473281d3825c484efb45345fea6d9d0"),
    "filtration-verify family2_q7_dim2": (0, "01148f3b7c16bd3155636bec471ed45f386a1bb05e02aa497ca58b014fd5f753"),
    "build t0_q4_dim3": (0, "1ae1ecd342d56607bc2562444b425f40a00eee9174a990524570fd5ab5b83786"),
    "homology t0_q4_dim3": (0, "effdd85b9550d4c9ac1968ac1ba1ecde3bbee944a06e11686307cd3653ee1df1"),
    "cm-check t0_q4_dim3": (0, "3780bd39d9b6dcad0353c972eddd6064e097d198fbd5dd3f6aad55190cd0074f"),
    "filtration-verify t0_q4_dim3": (0, "466bdd1c757dc5b11407b33b5393eadb81ea459d9b7fc04842b8509f5fc2b5ae"),
    "build t0_q4h_dim2": (0, "fc0a1cd95506803d4ca5e0d5af2f91bc0f0e91c056fa5dc73faddcf0014aade3"),
    "homology t0_q4h_dim2": (0, "0c483e125092d6ad1e99cd655b7dba1d05edffc1734d99b2097fedcc48d63184"),
    "cm-check t0_q4h_dim2": (0, "ee2deb1a10a1cced21370191c8cc20df72fb13dfab540215b4568abeac04be7c"),
    "filtration-verify t0_q4h_dim2": (0, "1f1a0c628b5387182c385c81cedf1cc1308ba5e4e11fe28531cb635bd308b97d"),
    "build t0_q5_dim3": (0, "4de702a22bb2cb35413cd963afb62e5c1c53ce1857e7e60ffe4ecbda46a01e65"),
    "homology t0_q5_dim3": (0, "53e24815cc8a0e8a8045b285c8271958cbf5e153d5f375d7eed788158ec3aef0"),
    "cm-check t0_q5_dim3": (0, "030a367a1efd4e6383fe7c301f109e925bf86aec48d8a314bd3c52916beec82a"),
    "filtration-verify t0_q5_dim3": (0, "d4ebfad31f30f7f52b627f286a4288ff034ffd2ac01f83b15fa667f252254177"),
    "build t0_q9h_dim3": (0, "4d1e9b6c4567b68bec3771400651972e46e3acba43e7dceea9f218a8b51300f9"),
    "homology t0_q9h_dim3": (0, "82955686cd34ab867bdd663dd5642042a77ff41973a9bd5584e62d5fac99363a"),
    "cm-check t0_q9h_dim3": (0, "4e38def8a58d36b9b9804ea232ff277ef2f25f1f501e2a04db725a490cb39a88"),
    "filtration-verify t0_q9h_dim3": (0, "c76197dccad7fc2487bba756c738e86748cda2c486ff1f967af6def8b075cf0d"),
    "build chamber_q5_dim4": (0, "b01bc06b61b4172e42ceace005416e537b391c4f18bb2ce770b1828806c40f04"),
    "homology chamber_q5_dim4": (0, "71cfb50409ac9d2c7839101c3224efbac44fbacbe218b06be100fc786c4f0009"),
    "cm-check chamber_q5_dim4": (0, "fa363fa463f2bb0a30d2ec99e5e443caa52b3affbe1a8b1bcb820771ba560f1f"),
    "filtration-verify chamber_q5_dim4": (0, "53e77d21528260bceb86092776c4172bb3b3f22e614e47277ddd57ccf49cd0bd"),
    "build t0_q3_dim4": (0, "1bef7de0391ca1cfb17faded1c222187da04128765d336fc2497ce5aa5f700d8"),
    "homology t0_q3_dim4": (0, "37750d85310ad07afce85398251e07f52fe43c532515fea6e772ee6e4437c918"),
    "cm-check t0_q3_dim4": (0, "777e7f32a85a1f94204e9802b1086a036b3902b466c007a276bab92d12d6e50f"),
    "filtration-verify t0_q3_dim4": (0, "7d656c15bbef1e728ff7afe43f3838ebb0bc0be849c5812b7c4fa825bafb471f"),
    "filtration-verify --negative-control t0_q5_dim3": (0, "a57baab739bf25f1e156cfbda6c146bd062d074c848cbf83ac3bcea1fa854538"),
    "filtration-verify --negative-control chamber_q3_dim3": (0, "91124b628800ad37486e58af5ac4ee33d36fbacc887235c63d6b51c3b88be5ad"),
    "filtration-verify --negative-control family2_q7_dim2": (0, "8f58fd917d98cdc7ee648a9f586b9f7114e141b4eddb1ab02d1e07e4b958e684"),
    "filtration-verify --negative-control t0_q3_dim4": (0, "26be7c112a914fb452edb2ab7465bb8fe07e26114855506e89008b6beceabc6a"),
    "build chamber_q2_dim5": (0, "18c0dfde183c2d0963c4f6edcbf370afc3fde5eb14e0c6eca25623e1d49c012a"),
    "homology chamber_q2_dim5": (0, "fcc0ab17843a266a8da66539b5b40bd96d01c1fa7f61f86279a6e50adcf3ffee"),
    "cm-check chamber_q2_dim5": (0, "748da3f4b9f782cc48fe0dc332d920b875a00d8a0ce8279bb1cbe4e9a1d1edad"),
    "filtration-verify chamber_q2_dim5": (0, "2124b873c9b63beba36e419f3ace116c614877f1c2d0cdf95101ba9f349c7de8"),
    "filtration-verify --negative-control chamber_q2_dim5": (0, "cf5365c40c4fca4d9ca2835a63973dcf597e028e875a2531f2540f622f0a5fd9"),
    "filtration-verify --negative-control family2_q11_dim3": (0, "5d8b12e94331a84d08c8dbe65e1de3c1c225ba344be844446ca6595b4e238ae5"),
    "bounds-table": (0, "60efbad3eacb981e1f8adff2b6af15efde5730f5e4b0cb3bd0990ef138012856"),
    "lemma-tests": (0, "2e31f9fbebf2af80b5d99d612b007af3e67c07fe1c7200f7a745e63598b26731"),
}


def _argv(run: str) -> list[str]:
    if run == "bounds-table":
        return ["bounds-table", "--max-n", "4", "--max-q", "64", "--max-m", "3"]
    if run == "lemma-tests":
        return ["lemma-tests", "--seed", "0"]
    command, *flags, name = run.split()
    forced = name in FORCED and command != "build"
    return [command, *flags, "--spec", str(SPECS / f"{name}.json")] + ["--force"] * forced


@pytest.mark.parametrize("run", list(PINS))
def test_report_matches_its_pin(run, cli_report):
    code, report, err = cli_report(_argv(run))
    assert (code, hashlib.sha256(report).hexdigest()) == PINS[run]
    assert err == ""
