"""Golden CLI outputs: every subcommand at a fixed, fast configuration.

Each case stores the argv, the exit status and the sha256 of stdout.  A
refactor that claims "same behaviour" must keep all three.  Zero-consuming
subcommands read the bundled zero file, except one ``count`` that scans for its
zeros.  Options that set nothing are usage errors (exit 2, empty stdout):
``find-zeros --step``, ``count --scan-step`` and ``--jobs``, which went with
the worker pool because refining is serial.
"""

from __future__ import annotations

import hashlib
from importlib import resources

import pytest

from zetaprod.cli import ZERO_FILE_ENV, main

ZF = "<bundled>"

# (argv, exit status, sha256 of stdout); ZF stands for the bundled zero file.
CASES = (
    (("xi-eval", "--z", "0"), 0,
     "d1512bf2c2c6db33ba60a79e8f04fa5ee5db56bc5ae5842309d7229a93283a0f"),
    (("xi-eval", "--z", "12,3"), 0,
     "f4aa653e4608ae28f54c5ee82955074289a2479beb01e827159f749202026eb1"),
    (("verify-table", "--rows", "1,4,9", "--all-pairs"), 0,
     "b761ed94ee115c6f91030819fb76d54c016e3e22ea783aee0d40614fa790d552"),
    (("verify-table", "--all-pairs"), 0,
     "fbeba7af9d933a8984bc28cbae3d232705c5dcf653e4685f393acae1b6aa0583"),
    (("cosh-demo", "--z", "2", "--terms", "40"), 0,
     "ab3a3c09d215e5fb1df810698919f7b35d0fb01bda01ce7675cedc3344502d09"),
    (("cosh-demo", "--z", "1", "--terms", "2"), 1,
     "1bd832b292328cc882fded9815aac24237d54946da4b936449d2fe850df0f545"),
    (("cosh-demo", "--z", "2", "--terms", "0"), 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # refined to within 1e-11, so the ordinates print correctly rounded
    # (14.1347251417, 21.0220396388, 25.0108575801)
    (("find-zeros", "--t-max", "30"), 0,
     "ce9dcf9a37a5420a79a0f4b512cdefbfb5b8045fca6d1afec7bcb1867d409f36"),
    # refining is serial, so there is no worker count to set
    (("find-zeros", "--t-max", "30", "--jobs", "2"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # the scan grid is fixed, so asking for a step is a usage error
    (("find-zeros", "--t-max", "30", "--step", "0.1"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # find-zeros checks nothing, so it takes no tolerance
    (("find-zeros", "--t-max", "30", "--tol", "count=1"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("count", "--t-max", "30", "--scan-step", "0.1"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("count", "--t-max", "50", "--zero-file", ZF), 0,
     "da216da62c51444cbf0d5aec4782f20dfebdb4a8c9c42dd18435fd6f62965158"),
    (("count", "--t-max", "50", "--zero-file", ZF, "--tol", "count=0.1"), 1,
     "da216da62c51444cbf0d5aec4782f20dfebdb4a8c9c42dd18435fd6f62965158"),
    (("count", "--t-max", "50", "--zero-file", ZF, "--tol", "nope=1"), 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("count", "--t-max", "1200", "--zero-file", ZF), 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("count", "--t-max", "50", "--zero-file", ZF, "--tol", "count"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # the predicted crossings are in closed form, within 1e-12 of the true ones
    (("predict", "--n", "25", "--zero-file", ZF), 0,
     "3ac5347665920f6b616dba9f3bbba980296d690d7ac6e748e6ee4798776873e6"),
    (("predict", "--n", "0", "--zero-file", ZF), 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("residual", "--z", "50", "--t-max", "100", "--zero-file", ZF), 0,
     "c62c73d24c71ab06f6b7a321baebacae6d8c4cd5e60b29d3b184e0ace707cf87"),
    # the grid starts at the closed-form root a, where omega reads -1.1e-16
    (("omega", "--t-max", "100", "--step", "0.1", "--zero-file", ZF), 0,
     "e7cf9470d1b67ee33d0182467152a0675ccbb37b4a3ea9efba358148345a3487"),
    (("omega", "--t-max", "100", "--step", "0", "--zero-file", ZF), 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("report", "--t-max", "100", "--step", "0.5", "--zero-file", ZF), 0,
     "b91a33199e3680692e3933bce6185337489e92d5a696d13524dcf0a900fffd0b"),
    (("report", "--t-max", "100", "--step", "150", "--zero-file", ZF), 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("report", "--t-max", "100", "--step", "0.01", "--zero-file", ZF), 0,
     "9adff159105a32871a16277f5be2720da42ca91f8092b376c33da637be6b9fb8"),
    (("residual", "--z", ",", "--t-max", "100", "--zero-file", ZF), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("count", "--t-max", "5", "--zero-file", ZF), 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # no zero file: a fresh scan gives the same output as the bundled list
    (("count", "--t-max", "50"), 0,
     "da216da62c51444cbf0d5aec4782f20dfebdb4a8c9c42dd18435fd6f62965158"),
    # the full height of the paper's experiment: 269 zeros, then the top of
    # the supported range, 649 zeros (651 lines) and the last entries of the
    # zeta head's log table
    (("find-zeros", "--t-max", "500"), 0,
     "19f071e726229de1bd717c9aad6cf1db24a084b61450ccae5d6d1893e07297eb"),
    (("find-zeros", "--t-max", "1000"), 0,
     "a5631956ab9806be19d48e8491dbfd4e787d76f9446060a559b67b8227b512a4"),
    (("xi-eval", "--z", "0.7,999"), 0,
     "9324c4de5b0feda160e4d17d277c35730f8c58eaa6fca0ffaaf6f2ed92fe3afe"),
    # xi underflows here, its log form does not: ln_xi=-764.85797+0.86281j
    (("xi-eval", "--z", "0.2,990"), 0,
     "d2c65ad2d2b1206d226ddcf7f9fb6edf20a742c1d49784eac172778f34c2ec0f"),
    # xi overflows a double above z = 432.59 on the real axis: an error line, no traceback
    (("xi-eval", "--z", "1000"), 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("xi-eval", "--z", "1e300"), 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # each subcommand takes only the tolerances it checks: none for these two
    (("xi-eval", "--z", "0", "--tol", "cosh=1"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("verify-table", "--rows", "1", "--tol", "cosh=1"), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # and count checks no residual
    (("count", "--t-max", "50", "--zero-file", ZF, "--tol", "residual=1"), 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # the residual tolerance binds on its own, below the tail estimate 0.05
    (("residual", "--z", "50", "--t-max", "100", "--zero-file", ZF, "--tol", "residual=1e-4"), 1,
     "c62c73d24c71ab06f6b7a321baebacae6d8c4cd5e60b29d3b184e0ace707cf87"),
    # the omega-mean tolerance binds below t_max 50 too: the running mean ends at -0.0086
    (("omega", "--t-max", "40", "--zero-file", ZF, "--tol", "omega-mean=1e-30"), 1,
     "f83d8978f3b850431adc1b1e393ae3f083ac13da57ead6c94ca358fc1d4c3f40"),
    # 9,034 rows: the CSV goes out in three blocks of at most 4,096
    (("omega", "--t-max", "100", "--step", "0.01", "--zero-file", ZF), 0,
     "abb8dac6814b8187a5b5ee939cb797f91f58764423bba515bb6e81493405136b"),
)


@pytest.fixture(scope="module")
def zero_file():
    with resources.as_file(resources.files("zetaprod") / "data" / "zeros_t100.txt") as path:
        yield str(path)


def run_case(argv, zero_file, capsys) -> tuple[int, str]:
    argv = [zero_file if a == ZF else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv,code,digest", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_golden(argv, code, digest, zero_file, capsys, monkeypatch):
    monkeypatch.delenv(ZERO_FILE_ENV, raising=False)
    assert run_case(argv, zero_file, capsys) == (code, digest)
