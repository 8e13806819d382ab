"""Golden bytes of ``wpline verify``.

Each digest is the SHA-256 of the complete stdout of one call, pinned from
the verifier's output before ranks moved to the binary-form kernel: the
baseline cases on their baseline fields at windows 20 and 40, case D over Q
with a rational lambda (both root picks), and a tamper control.  The cases
B, C and D at primes near 10^5 and 10^6, with both root picks, were pinned
while roots were still found by scanning every residue; they fix which of
several roots each pick binds (at 100183 only the smaller epsilon works, so
``largest`` backtracks).
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
    ("verify --case B --field 100153 --window 12", 0,
     "ae7eef32b88ca48d3b126c17b6b74212950339b27a93be49226cdf4a9748e5ab"),
    ("verify --case B --field 100153 --root-pick largest --window 12", 0,
     "6504482480e6b7146d82770a9bbf3f0470c718192cc2c76c1e1b4a77235bb51f"),
    ("verify --case B --field 100183 --window 12", 0,
     "53320e5f58dce56d0cf65cb51586fae38296d1de258703a74b5d443c9bb5baf5"),
    ("verify --case B --field 100183 --root-pick largest --window 12", 0,
     "c8601653351fdde91a8369d6e0bd0f63044623bcfa0dc043de836b38f66c56b5"),
    ("verify --case C --field 100069 --window 12", 0,
     "27c527effd50787225c8f6401eff5d55a18f761d3746e5b960b90eac06c39eb5"),
    ("verify --case C --field 100069 --root-pick largest --window 12", 0,
     "075745146cee66e14a22d5094282c3c1ff85b31de098f8d5982b4346b4d258df"),
    ("verify --case D --field 100057 --lambda -1 --window 12", 0,
     "fda2576936534fb39e8d028496a599f7afbde47423dc2faca5009d772368327f"),
    ("verify --case D --field 100057 --lambda -1 --root-pick largest --window 12", 0,
     "af928a6f047744b15afcb4109c888cc9d66828da80eff4fec287497d0a5a5b41"),
    ("verify --case B --field 1000033 --window 12", 0,
     "0164b4a732b2b56843ec6ec0b81a8b3a6d71ed3cd84caaa72d8f1c136b3336ca"),
    ("verify --case B --field 1000033 --root-pick largest --window 12", 0,
     "ca6718e1dfbc75df03686ab40e1fec297df21639e55047cfe8cca724d9d9e626"),
    ("verify --case C --field 1000333 --window 12", 0,
     "ef7a8d69ffb1190b451fda62f30c08d852ef10e40e9672be05a1313f40c357f2"),
    ("verify --case C --field 1000333 --root-pick largest --window 12", 0,
     "2265eb8f337389dc96935e7e86292d2451f5cca274a519834ea26df040a86fc4"),
    ("verify --case D --field 1000033 --lambda -1 --window 12", 0,
     "87f2d45bd6ecbca7dab4bf5c64c900eb0faed89129055577a83778ef298272e3"),
    ("verify --case D --field 1000033 --lambda -1 --root-pick largest --window 12", 0,
     "df7d8dc0ee719a0aa2cebf7b2986331d9bf69efa6d5a1deff6c6c6e1fc0970a0"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_verify_stdout_bytes(argv, code, digest, capsys):
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
