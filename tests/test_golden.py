"""Golden reports: SHA-256 digests of small CLI invocations.

The first thirteen digests were recorded before the code was
consolidated into one family generator, one exact-check record builder
and one monomial-action accumulator; refactors must reproduce every
report byte for byte.  The set covers every command, JSON and CSV, the
auto-selected matrix point, a degenerate exit 2 and an eps list on the
|q| < 1 side.  The rest cover each table command in the format the
first thirteen miss, a ConfigError payload, a degenerate q point, a
matrix residual failure (exit 1) and a zero scan tolerance.  The next
four pin the limit-side links and the family generator before their
rewrite to integer arithmetic, and the last three the q-side closed
forms (an mpf scan, a deep exact table and a deep q family) before they
were rewritten to run each q-Pochhammer product once.  The last four
pin the F-polynomial and Phi paths of matrix-verify and verify-q before
each was made to build only what its checks read.

Run as a script, the module prints "sha256 exit-code argv" for each argv
line on stdin, so a digest sweep over two source trees is two runs and a
diff, without pytest:

    PYTHONPATH=src python tests/test_golden.py < argv.txt > digests.txt
"""

import contextlib
import hashlib
import io
import sys

from krallm1.cli import main

GOLDEN = [
    ("verify-m1 --beta 1/2 --M -1/4 --n-max 6",
     0, "855181bb42c9bdcbf067012c5c37e8c20c215f65bf56a94a133c299d14c26112"),
    ("verify-m1 --beta 3 --M -2 --n-max 4 --format csv",
     0, "5544ff949ca86874ec1921e045c6e2a32a437da19506ea9db61085ecd9a424f1"),
    ("verify-m1 --beta 1 --M 1 --n-max 4",
     2, "1f5e4cd429f6aba0ed90534c17ca42cce224402ef1583a094685b376af751c23"),
    ("verify-q --q 2 --b 3 --j 2 --M 1/7 --n-max 5",
     0, "5c081fc461997e19da42d8d22d984701145258c1e67fd73f0160854509c22b95"),
    ("verify-q --q 1/2 --b -1/3 --M 2 --n-max 4 --format csv",
     0, "e827533d696bbf34d93c5caee80f2b946d3fa2674a7b9a9f8d72f5ef22eaf57a"),
    ("moments --beta 1 --M -1 --n-max 6 --format csv",
     0, "85dd5ed399dae0633b67e20cbc407171b67ab1e8c86820d3c40c1099cb552882"),
    ("gram --beta 2/3 --M -5/7 --n-max 5",
     0, "3846ad6df552077ccfea9dcb6a17fabbb1144de1c30a55a725eb3896ce2c133b"),
    ("gen --family m1 --beta 1/2 --M -1/4 --n-max 5",
     0, "5bbfa6cdd7f8fb36183f82405fc3503498984a44c6c92d56699205366a5e5769"),
    ("gen --family q --q 3 --b -2 --j 1 --M 1/5 --n-max 4 --format csv",
     0, "e3a599953283d9376bcb0a744b1aa02db994effaa7b4c894e0f6ff418863e6f8"),
    ("limit-scan --beta 3/2 --M -1/3 --n-max 2 --format csv",
     0, "19b8afdd676cca43c18f0a0cd09450ab725fb9c257944e50f261694a2d27f5f8"),
    ("limit-scan --eps-list=-1e-2,-1e-3 --beta 1 --M -1 --n-max 1",
     0, "3c81529215101cd115e3c4f0e431d0f59d8e29b7d12a1ce986bdab33728e9cf0"),
    ("matrix-verify --n-max 3",
     0, "6cd9c7d0500eee9eb964b865d366db3a64869e9e96482d0ad8717fec8b291634"),
    ("matrix-verify --beta 1/2 --M -1/4 --n-max 2 --precision 80 --format csv",
     0, "855914779810bb8cdcbc26a6684911be68520f035d871d8791020165aca76174"),
    # Recorded before argument parsing and dispatch were folded into
    # argparse and one command table.
    ("gram --beta 1 --M -1 --n-max 3 --format csv",
     0, "6d8c1c5e1dc12580cdad83f4e76a438740f8f6a1f4ace0d1cda8ee9dd005629c"),
    ("moments --beta 1/2 --M -1/4 --n-max 5",
     0, "f925f56a8956f828bb38196a59898dda53cb5ce6f7b06fab41694f849296f8a1"),
    ("gen --family m1 --beta 1 --M -1 --n-max 3 --format csv",
     0, "7f6efea7c0931ffd58c6c3eed33124602c4117b5fcf1838584bcadff37306ca3"),
    ("gen --family q --q 2 --b 3 --M 1/7 --n-max 3",
     0, "26097ff5cf3f9d3230b57cf04fe823760aa8ee0a694cde3b049e10cf8720af95"),
    ("matrix-verify --beta 1",
     2, "8eea5cfaedc496992944c1635e82e929bf9a09bb66846b72a0e0d2ffdc386369"),
    ("verify-q --q 1 --b 3 --M 1/7",
     2, "ebc3323505f5539262b3d16d4e989e7778fe838b516f0a8e1bd6df30a599c788"),
    ("matrix-verify --n-max 1 --tol 1e-99",
     1, "262d38ec6d152900271d77ff0e1afa5c2dba722e71f5e1d16c53adcd46c24dd2"),
    ("limit-scan --beta 1 --M -1 --n-max 1 --tol 0 --format csv",
     1, "8a2bd0ed7ba4cb5247fa68d646dab5c50a8a4847fecfb4aec63fd3466b7fe303"),
    # Recorded before the limit-side links and the family generator moved
    # to integer numerators over a common denominator: a matrix point
    # off the auto-selected one, a deep family with large rationals, and
    # the degenerate exits of limit_B (M = -1) and base_recurrence_m1.
    ("matrix-verify --beta 3/2 --M -1/3 --n-max 7",
     0, "60229a4cb83bb4e8084123363df5530b676dae5cbec27a073fb270171799c033"),
    ("gen --family m1 --beta 7/3 --M 5/11 --n-max 14 --format csv",
     0, "ee7b0e4b9e9621b8be3d93a5bddbe066b37dc901e08698617a7981426df13657"),
    ("gen --family m1 --beta -5 --M -1 --n-max 4",
     2, "20bd2fb7b022bd2fc4a44c7f362bb276bdeb65c781438b7b433bb0967144414b"),
    ("gen --family m1 --beta -5 --M 0 --n-max 4",
     2, "d6538722df807f943ba6fc223d8523bbe3b620b2728db2c383349da326c6a4da"),
    # Recorded before lqj_poly, phi and lambda_q shared their running
    # q-Pochhammer products.
    ("limit-scan --beta 5/2 --M -1 --n-max 4",
     0, "03451d8fa84d8af508d4437434d846f06db4e4b87066ae26a86332eeea2888a2"),
    ("verify-q --q 7/3 --b -1/2 --M 3 --n-max 12",
     0, "e91c22fea01ad27aabf9330de41cc639a70b684a549aa932d4c3bd660caf3d6c"),
    ("gen --family q --q 5/2 --b -2 --M 1/3 --n-max 10 --format csv",
     0, "0a930d51b192c45a610bfe6c8348cae53b2d4be8804e4b8b309e79d42490c9a3"),
    # Recorded before matrix_op built only the F-polynomials each check
    # reads and verify-q shared one Phi list: a deep matrix point at 100
    # digits, a deep exact q table in CSV, a Phi_2 = 0 exit at degree 3
    # (the error precedence once Phi is computed up front) and a point
    # with Phi_3 = 0 exactly at n-max.
    ("matrix-verify --beta 1/2 --M -1/4 --n-max 10 --precision 100",
     0, "f533ac39a2740ed14d5b8dee08071972f52b91c023602b7037ecb9467bd10117"),
    ("verify-q --q 12/5 --b -11/7 --M 9/4 --n-max 16 --format csv",
     0, "26e88ddefc1c2effa7f13147a0a7607810812845443f894e50b9a1a00ac08987"),
    ("verify-q --q 2 --b 3 --M 176/987 --n-max 5",
     2, "6a29158396be3f5fd148b8e16b3ead286c414296c7dd548723314f128ad1683a"),
    ("verify-q --q 2 --b 3 --M 16192/415245 --n-max 3",
     0, "654bc55ea4c9995b1eee86c62f0c9bf36618c470ce9cb78e613d99708c66b430"),
]


def report_digest(line: str):
    """(exit code, SHA-256 of stdout) of one CLI invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(line.split())
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def pytest_generate_tests(metafunc):
    # A hook rather than a decorator, so the script entry needs no pytest.
    metafunc.parametrize("line,code,digest", GOLDEN,
                         ids=[line for line, _, _ in GOLDEN])


def test_report_digest(line, code, digest):
    assert report_digest(line) == (code, digest)


if __name__ == "__main__":
    for argv in sys.stdin:
        if argv.strip():
            code, digest = report_digest(argv)
            print(digest, code, argv.strip())
