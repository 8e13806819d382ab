"""Golden bytes of ``wpline verify``.

Each digest is the SHA-256 of the complete stdout of one call, pinned from
the verifier's output before ranks moved to the binary-form kernel: the
baseline cases on their baseline fields at windows 20 and 40, case D over Q
with a rational lambda (both root picks), and a tamper control.
"""

import hashlib

import pytest

from wpline.cli import main

GOLDEN = [
    ("verify --case A --field rationals --window 20", 0,
     "336713baaea01262eb7976a8f9106c7a579c9c8b372677ce0e47f3f43b176156"),
    ("verify --case B --field 7 --window 20", 0,
     "1149af14403223a0e90a832d0f58ed975d985e4abc7b201faa582e7abeeff54e"),
    ("verify --case C --field 5 --window 20", 0,
     "1af7b770ba5ea2381e6a7b105ecb690410b8a8d80193bf039242df8213382c57"),
    ("verify --case D --field 7 --lambda -1 --window 20", 0,
     "5958b333c96ef1ed74b5b121533958c1bf2a8a6ef1507441a4db2bbbcd354884"),
    ("verify --case A --field rationals --window 40", 0,
     "633686bb079887a03a16369fbbb4295137abcb705996b0d7a60efa91bfe07980"),
    ("verify --case B --field 7 --window 40", 0,
     "3be7ed703d2588ccbd657453dbf1b121059813bb967cb383fb6108833dd5f1ae"),
    ("verify --case C --field 5 --window 40", 0,
     "f0676e9e3e9fa342add209de3b8631c0c8125c8e36b8e01bf0359ac761af8a4f"),
    ("verify --case D --field 7 --lambda -1 --window 40", 0,
     "0097a0de6b79964d358406a3d399ef721de57afd95616a8f2cfd7c752bf453ab"),
    ("verify --case D --field rationals --lambda -548587/974169 --window 20", 0,
     "10c5f285798aa05a8d4a1e86f5f9e7689c4b95ca764f0f049152afa671d53e89"),
    ("verify --case D --field rationals --lambda -548587/974169 --root-pick largest --window 20", 0,
     "5a08baad74b653ec5034e91447e82769133aa16cbb7b8a84dcdac184669108d3"),
    ("verify --case D --field 17 --lambda -1 --tamper lambda=2 --window 12", 1,
     "f9f8317e7be5ae5830713003cbc30890ab6279b04ec9bbe985887695c711c962"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_verify_stdout_bytes(argv, code, digest, capsys):
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
