"""Golden bytes of ``wpline verify``, ``wpline group``, ``wpline algebra`` and demo 02.

Each digest is the SHA-256 of the complete stdout of one call, pinned from
the verifier's output before ranks moved to the binary-form kernel: the
baseline cases on their baseline fields at windows 20 and 40, case D over Q
with a rational lambda (both root picks), and a tamper control.  The cases
B, C and D at primes near 10^5 and 10^6, with both root picks, were pinned
while roots were still found by scanning every residue; they fix which of
several roots each pick binds (at 100183 only the smaller epsilon works, so
``largest`` backtracks).

The tamper controls on A and B, the ignored ``--lambda`` of case A,
``--auto-prime``, the ``group`` answers of the built-in cases and the
``--config`` pass reports of the documents below were pinned while each case
was still written out by hand in ``cases.py`` and ``field.py``.

The baseline cases at window 80 and the fields whose packed slots are wider
than 64 bits at window 12 were pinned while each row was still assembled
monomial by monomial, before rows became products h_r * f^a * g^b.

The large windows (B over F_7 at 400, C over F_5 at 120, D over Q at 100)
were pinned while every record was still eliminated, before records above
the base levels were inferred by level induction.

The ``group admissible`` answers at window 256 and the ``group fiber``
answers at elements of negative level were pinned while fibers and
admissibility were still computed on ``GroupElement`` values, before they
moved onto (l, torsion) int tuples.

Case A at window 2000, the ``--config`` report of a map that is neither
admissible nor onto (``CONFIG_FAIL``) and a ``--tamper`` pass report on a
config were pinned while the report was still the output of
``json.dumps(report, sort_keys=True, indent=2)`` on its whole dict form,
before records were written one format string each.

The ``group admissible`` answers at windows 1 and 1000 and case B over F_7 at
window 1, whose base levels the window cuts, were pinned while fibers were
still a dict built level by level and admissibility walked every image
degree of the window, before both came from the period table.

The ``algebra hilbert`` answers were pinned while ``CoordinateAlgebra.dim``
still listed (and kept) the component basis of every degree it counted.

The ``algebra dim``, ``basis`` and ``reduce`` answers (over Q and F_7, on 2 to
5 weights, exponents at or above the weight on every generator, fractional
coefficients) and the output of demo 02 were pinned while the algebra still
rewrote exponent dicts, before its elements became binary forms over
k[U, V]; the demo has since dropped its block on redex orders.

The RelationError reports of ``relation_doc(5000)`` and ``relation_doc(25000)``
were pinned while products of elements over F_q still multiplied ``Fp``
coefficients term by term, which took 5 s and 34 s for them.  Those of
``rational_relation_doc(600)`` and ``rational_relation_doc(2000)`` were pinned
while products over Q still multiplied ``Fraction`` coefficients and long
integer forms by schoolbook, which took 1 s and 7 s for them.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

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
    ("verify --case A --field 5 --window 8 --tamper lambda=2", 1,
     "5cff0a3c2514b4eaffe15a1e4713b75a49e2abd727828fe228121893306938d0"),
    ("verify --case B --field 7 --window 8 --tamper lambda=2", 1,
     "0e6b6563e0843f36b43eb0ae2aacc839e5cf4d67063c8d7cb0f44a26a3e5973f"),
    ("verify --case A --field 5 --window 8 --tamper lambda=-1", 0,
     "668ef430765ec18cf58230207b9eb1f703bcf783bd483544021bb2806b49d4ff"),
    ("verify --case A --field 5 --lambda 3 --window 8", 0,
     "7c46022ec499252665e30e99c41df5859a2c2bf38a1cf23d83904d62e0069c99"),
    ("verify --case B --auto-prime --window 8", 0,
     "cd81f6fa8bfc2d5e3068ccf7aedb3af05f8cd5adaf94e932fb051cd0a14ebf64"),
    ("verify --case A --field rationals --window 80", 0,
     "13648ee1f14c6d445b6b3c699c62d016b52844818c7e9564970101623b52e8b9"),
    ("verify --case B --field 7 --window 80", 0,
     "b3f693a691a81ed384897f2e5b366826e1f2e8a220c88a37c7eebb85f2811d12"),
    ("verify --case C --field 5 --window 80", 0,
     "d7578dee558871835a53172a446053caea2bb9142a3698b8f0647003eaac3a75"),
    ("verify --case D --field 7 --lambda -1 --window 80", 0,
     "6159019044e742a9b3dc93337ed1a9ba299b861dba68da3ca17135f08affe411"),
    ("verify --case A --field 2305843009213693951 --window 12", 0,
     "2535acdb08a424e12fcefd2394953f2687126cea885bdcd46145299472564423"),
    ("verify --case B --field 1000001161 --window 12", 0,
     "52e45f6180a8fece91c1d1d7c0c89568b1807474c4fc95386363a68d45b72534"),
    ("verify --case C --field 1000001161 --window 12", 0,
     "4f78d16f8f15f0ede43c9543daee7c2a3c45a813dbf8aac1c2c4404b7cf64b43"),
    ("verify --case B --field 7 --window 400", 0,
     "d1c1f2bc0cb7642f418e176f1011d179c2c1879bf0689ebb24ff6f60d92c6cf4"),
    ("verify --case C --field 5 --window 120", 0,
     "f9ecaaa90a3208fe73586ca979a8e7f175cf9dad70c1013e951ef45bda5a80b7"),
    ("verify --case D --field rationals --lambda -3 --window 100", 0,
     "61787d2fe5be1f33313abb08cda960fe7f7ec3d706d3f55adb3902e8e89b7bd6"),
    ("group kernel --case A", 0,
     "3396a7e5eaf7d45dfcdf1c40dd857eef21bd8c9b32c423b89da5d090c3b1a09c"),
    ("group fiber --case A --elem 1;0,0,0,0", 0,
     "8000931f62eb26133e36cf0c90fdcc4ccc07262c166792cf4f2a06bf68fb572b"),
    ("group admissible --case A --window 64", 0,
     "f993ad717e5f57ace2c4d3a9afb63b3c903083226418ef76aa7d191c25b8b9a2"),
    ("group kernel --case B", 0,
     "b01dbd570a3a61d857b52fd95ae8d610f212eca81be9566887e12ba52b7a79a7"),
    ("group fiber --case B --elem 2;0,0,0,0", 0,
     "796197ba561a0e20a715020f6200d78df776258fa424fef8565b736cf2fa2a86"),
    ("group admissible --case B --window 64", 0,
     "1716911e691b05794f648a5df4dec5090cf8034448f25f7a3c63ac01b313985f"),
    ("group kernel --case C", 0,
     "b97f9cd7b186e7f91402273bcb9d65521caeb4c3252ec813340483e3642e45dd"),
    ("group fiber --case C --elem 1;0,0,0", 0,
     "414c742596aac8801940ff0d137d2c6b0c41460d4c0af47dafc9bfc7b1afcb25"),
    ("group admissible --case C --window 64", 0,
     "81b602678ad67a9216dd99931bec8961d952e598b28cc1568377ec0dcdac4857"),
    ("group kernel --case D", 0,
     "2c9a4b5e1f78e658ee86485256610eef3e718c1f3a47bf9bce8021f8b30c3998"),
    ("group fiber --case D --elem 1;0,0,0,0", 0,
     "24592e371aa0bc9ef2f7d049e865811e6482075c3239f3358bb1f9b87542ac0c"),
    ("group admissible --case D --window 64", 0,
     "3dcfebd81480d0ec4805383adea7e109985fec7d158ee95ae7e6b48f6a2cbfc7"),
    ("group admissible --case A --window 256", 0,
     "3bd3e9f2a8d8de974d1957bc5224991ae1b69e475a7cc62e1e76b6d009c12a0e"),
    ("group admissible --case B --window 256", 0,
     "7afda79160341c5edfbaa82f7200401c2936ad7a68f1b7bfca0daebe27e158d2"),
    ("group admissible --case C --window 256", 0,
     "7d5f528c3abb5aff4055fab4896cc2056bec6c26cd293cf49e78aad4decf7557"),
    ("group admissible --case D --window 256", 0,
     "436593bceab7d2884555e3993925759c827fddb1766c2114aa735e6f5c465224"),
    ("group fiber --case A --elem -2;1,0,1,1", 0,
     "7291c4bbee0907a42e1699803b3ec0c38b0c0a52e9e790f317ade96339df62a3"),
    ("group fiber --case B --elem -1;0,0,0,0", 0,
     "41259e1dff9b69af41a533f7a883e3ac2e786d3e021d18a5e44dc8b4da43fa4e"),
    ("group fiber --case C --elem -2;1,1,0", 0,
     "016c01bea792f5da32355a54ac48fd32966bd841af05018e5b17b0d2e182d8e0"),
    ("group fiber --case D --elem -3;0,0,0,0", 0,
     "d849157022467099e620122b10c81c854992a1aed20e937b8d183b4a9bc0f180"),
    ("verify --case A --window 2000", 0,
     "2ec8d4e7e495e6fe78836a025eb7865c079754e6e360d6b4ff59edec1b029c8e"),
    ("group admissible --case A --window 1", 0,
     "a3cd9684d5b17611d90579a923485586db860031687e37850f53f8e52066abc4"),
    ("group admissible --case B --window 1", 0,
     "14a1d65d66afdca7d8f0563132f9d6486b1fd2ab53f9238f65a83236942acda5"),
    ("group admissible --case C --window 1", 0,
     "c9337efcaecd18a34d6d79dc761823bd95d970579265d9d89893e940d9c56a40"),
    ("group admissible --case D --window 1", 0,
     "a2de95bedae6be340a4720630c96c7f25aeabe94b99cd2024adc4bdfce61fcc5"),
    ("group admissible --case A --window 1000", 0,
     "40c323da46256e8c0ef4dfa279217a98bc7560155211d4b0e74122b0ebf8eef6"),
    ("group admissible --case B --window 1000", 0,
     "f287f0866d10a711207eb1b082b70e1d25a1642e926fbff4f4853434e57b6e84"),
    ("group admissible --case C --window 1000", 0,
     "c8a58e63c69c613a52e124e2147c9b8283b88760a516808ffbbb0795dbc399d7"),
    ("group admissible --case D --window 1000", 0,
     "4fc84d42201364b1a53b5105bd3355f042090491e0c2bc205fe12ba86a885412"),
    ("verify --case B --field 7 --window 1", 0,
     "e7938703adb261ed7bdd8ec231a903ab1bf816b12056db1068168ed3abd1f2a2"),
    ("algebra hilbert --weights 2,3 --lmin -5 --lmax 40", 0,
     "e595be0a16a71bc25cfd1c0e1e9c23ea2d1ceb77804dd1bc516b18d378d2894f"),
    ("algebra hilbert --weights 6,3,2 --lmin -3 --lmax 60 --torsion 1,2,1", 0,
     "03077021450c3ff5a61d63f4823c2972af0ceeb40e205f9b9dfe44379cde8c2d"),
    ("algebra hilbert --weights 2,3 --lmin 0 --lmax 2000", 0,
     "e0f1f6860066393cdbc61c3b461080aaf48f987e20bc1ef3d9d4e3c4a8369b81"),
    ("algebra dim --weights 2,3 --degree 7;1,2", 0,
     "aa67a169b0bba217aa0aa88a65346920c84c42447c36ba5f7ea65f422c1fe5d8"),
    ("algebra dim --weights 2,2,2,2 --params -1 --degree 3;1,0,1,1", 0,
     "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d"),
    ("algebra dim --weights 6,3,2 --field 7 --degree -1;5,2,1", 0,
     "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    ("algebra basis --weights 2,3 --degree 4;1,2", 0,
     "a258d74fd583ba845ba010941182ae6ea285dfbaa0388a245cdf9c6cd8bcfffd"),
    ("algebra basis --weights 3,3,3 --degree 3;2,1,2", 0,
     "626bba3be688e710539428570cf728bc3749988bdb02205668789df89698bac0"),
    ("algebra basis --weights 4,4,2 --field 7 --degree 5;3,1,1 --json", 0,
     "ae94a451f80fffcae02a8e766d0fd528a2c6a0af4e92204eae6cd7eafa5425bf"),
    ("algebra basis --weights 6,3,2 --degree 6;5,2,1", 0,
     "180cb790ec9e533b661bcc7f18b5e54fc0272d9455500ec61c4ef7f067c56e64"),
    ("algebra basis --weights 2,2,2,2 --params -1 --degree 4;1,1,1,1", 0,
     "65f28eb095410c00ef74fa1b441f378375a9e3f8212f6272beeb465a9b40a99c"),
    ("algebra basis --weights 2,2,2,2 --params -1 --degree -1;1,1,1,1", 0,
     "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    ("algebra basis --weights 2,2,2,2,2 --params 2,3 --field 7 --degree 3;1,0,1,1,1", 0,
     "d35270ce46fd3f718e95b6549cbe866e199ec32986d532a150799a5c9163fd02"),
    ("algebra basis --weights 2,2,2,2,2 --params -1,1/2 --degree 2;1,1,1,1,1 --json", 0,
     "85925410c5338d16d5417661320c9c0f046378d77dd62b23e0b35620942920fe"),
    ("algebra reduce --weights 2,3 --monomial 5,7 --coeff 3/4", 0,
     "0456bacd4f6c62d1e439cf2663514ab4c2bc13175fb1fcf70ef1e8bd0b3dc30e"),
    ("algebra reduce --weights 2,3 --field 7 --monomial 9,4 --coeff 1/3", 0,
     "a880384b9f7a09902183cf3cbf13e64072176d99daac3a8cfa37ff5316d06e7c"),
    ("algebra reduce --weights 3,3,3 --monomial 4,5,7 --coeff -2/5", 0,
     "b831eddf9729b16bf99d40b1d850c36fce7447e771193778d932a3fab3cf5d7f"),
    ("algebra reduce --weights 3,3,3 --monomial 0,0,0", 0,
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("algebra reduce --weights 3,3,3 --field 7 --monomial 3,0,4 --coeff 14", 0,
     "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    ("algebra reduce --weights 4,4,2 --field 7 --monomial 6,9,5 --coeff 2/3", 0,
     "6ba155f46ddbcf88bfeec5ef3f3c8b8f29b4ba2b9831c7d9ec4e02ed2ecc91ca"),
    ("algebra reduce --weights 6,3,2 --monomial 7,4,5 --coeff 5/3", 0,
     "d1cf13c8f1e77d5c8661883e3e41c1c0af44404d9a6116fe10c587794645611c"),
    ("algebra reduce --weights 6,3,2 --field 7 --monomial 13,8,9 --coeff 1/2", 0,
     "bad890142063c50640f87707d2a1349327ee7b1b530a271a73c8b306c58318fe"),
    ("algebra reduce --weights 2,2,2,2 --params -1 --monomial 3,4,5,6 --coeff 2/3", 0,
     "5badfbfbbe111431a5c0966c2a3bfc4486cd40f75d1c2fd07b4d9c68074ab3be"),
    ("algebra reduce --weights 2,2,2,2 --params 3 --field 7 --monomial 2,3,5,7 --coeff 1/5", 0,
     "36ab7f19a73da5704bb90ea8058adb378f827811f72807a6cc44f9d7e454516f"),
    ("algebra reduce --weights 2,2,2,2 --params -548587/974169 --monomial 2,2,3,5 "
     "--coeff -1/7", 0,
     "28f54ec6b3ff252329288243207b5c0c089a741ffe12471ae1f219d5fb6944d4"),
    ("algebra reduce --weights 2,2,2,2,2 --params -1,1/2 --monomial 3,2,5,4,3 --coeff 7/2", 0,
     "c1a4165bdce4d946631113da7bf928f5ad5fce206216e2a6f62385668aa4f42b"),
    ("algebra reduce --weights 2,2,2,2,2 --params 2,3 --field 7 --monomial 2,3,4,5,6 "
     "--coeff 1/6", 0,
     "36fe612960e0f1039e92b6c47f7657f60ddb3fd049fb3d0c8fa42b00b4c7a959"),
]

#: the documents ``perfbench/workloads.py::case_config`` writes for cases A-D
#: at window 8 (D with lambda = -1); A is also run over Q
CONFIG_A = {"source": {"params": ["1"], "weights": [4, 4, 2]},
            "target": {"params": ["1", "-1"], "weights": [2, 2, 2, 2]},
            "constants": {},
            "pi": ["0;1,0,0,0", "0;0,1,0,0", "0;0,0,1,1"],
            "phi": [[["1", [1, 0, 0, 0]]], [["1", [0, 1, 0, 0]]], [["1", [0, 0, 1, 1]]]],
            "window": 8}
CONFIG_B = {"source": {"params": ["1"], "weights": [6, 3, 2]},
            "target": {"params": ["1", "eps"], "weights": [2, 2, 2, 2]},
            "constants": {"eps": ["1", "-1", "1"], "delta": ["3-6*eps", "0", "1"]},
            "pi": ["0;0,0,0,1", "1;0,0,0,0", "0;1,1,1,0"],
            "phi": [[["1", [0, 0, 0, 1]]], [["1", [0, 2, 0, 0]], ["eps-1", [2, 0, 0, 0]]],
                    [["delta", [1, 1, 1, 0]]]],
            "field": "7", "window": 8}
CONFIG_C = {"source": {"params": ["1"], "weights": [6, 3, 2]},
            "target": {"params": ["1"], "weights": [3, 3, 3]},
            "constants": {"i": ["1", "0", "1"], "r": ["4", "0", "0", "1"]},
            "pi": ["0;0,0,1", "0;1,1,0", "1;0,0,0"],
            "phi": [[["1", [0, 0, 1]]], [["r", [1, 1, 0]]],
                    [["i", [3, 0, 0]], ["i", [0, 3, 0]]]],
            "field": "5", "window": 8}
CONFIG_D = {"source": {"params": ["1", "(3-2*s)/(3+2*s)"], "weights": [2, 2, 2, 2]},
            "target": {"params": ["1", "-1"], "weights": [2, 2, 2, 2]},
            "constants": {"s": ["-2", "0", "1"], "u": ["-(3+2*s)", "0", "1"]},
            "pi": ["0;1,0,1,0", "0;0,1,0,1", "1;0,0,0,0", "1;0,0,0,0"],
            "phi": [[["u", [1, 0, 1, 0]]], [["1", [0, 1, 0, 1]]],
                    [["1", [0, 2, 0, 0]], ["-(1+s)", [2, 0, 0, 0]]],
                    [["1", [0, 2, 0, 0]], ["-(1-s)", [2, 0, 0, 0]]]],
            "field": "7", "window": 8}
#: (2,2) -> (2,2) sending both generators to x_1: the group map is not
#: effective and its fibers over x_1 and c are too large, and the image
#: misses x_2, so records fail on both counts
CONFIG_FAIL = {"source": {"params": [], "weights": [2, 2]},
               "target": {"params": [], "weights": [2, 2]},
               "constants": {},
               "pi": ["0;1,0", "0;1,0"],
               "phi": [[["1", [1, 0]]], [["1", [1, 0]]]],
               "field": "rationals", "window": 6}



def relation_doc(n: int) -> dict:
    """(2,2,n) -> (2,2,2,2; -1) over F_7, n even, with phi = x1^n, x2^n, x3^2:
    graded, but x3^n = x2^2 - x1^2 fails, and checking it takes the power
    (V - U)^n, a form of n + 1 coefficients."""
    return {"source": {"weights": [2, 2, n], "params": ["1"]},
            "target": {"weights": [2, 2, 2, 2], "params": ["1", "-1"]},
            "constants": {},
            "pi": ["%d;0,0,0,0" % (n // 2), "%d;0,0,0,0" % (n // 2), "1;0,0,0,0"],
            "phi": [[["1", [n, 0, 0, 0]]], [["1", [0, n, 0, 0]]], [["1", [0, 0, 2, 0]]]],
            "field": "7", "window": 20}


def rational_relation_doc(n: int) -> dict:
    """``relation_doc(n)`` over Q onto (2,2,2,2; LAM): checking the relation
    takes (V - U)^n with integer coefficients up to C(n, n/2)."""
    return dict(relation_doc(n), field="rationals",
                target={"weights": [2, 2, 2, 2], "params": ["1", LAM]})


#: a parameter of height about 2^50 for the rational relation documents
LAM = "-123456789012345/987654321098767"

#: stdout of ``verify --config`` on relation_doc(25000), exit code 1
RELATION_25000 = "b61369133c13ad796ce5e9ed77b67ef4d6502119381db9388bdb9c57fdbca707"

#: (name, document, further arguments, exit code, digest)
CONFIG_GOLDEN = [
    ("A/Q", dict(CONFIG_A, field="rationals"), [], 0,
     "a2fc999a5817878966958b3e755fef6926a5399a6511d028a000e369341170bc"),
    ("A/5", dict(CONFIG_A, field="5"), [], 0,
     "57b66a384b502db519cdf43e2cd0be0d72cd8799d131acbe23438f30a209d735"),
    ("B/7", CONFIG_B, [], 0, "82052e19c854c4462bce8decbfc8181200413565e0d5d53d29d4d09e1cad7bfc"),
    ("C/5", CONFIG_C, [], 0, "6d528da325e002f390f4a1f4927d41f42d62eaf3f0d17f02fe7202d46d060b6c"),
    ("D/7", CONFIG_D, [], 0, "31d22806ac003625f01353033e7d1532014fc91e30725ff4457448b6878bd277"),
    ("fail/Q", CONFIG_FAIL, [], 1,
     "ff2ddd6e2553bc56b35acc44015e86dd53fda28c1e2bc569caf1605b02ac92a6"),
    ("A/5 tamper", dict(CONFIG_A, field="5"), ["--tamper", "lambda=-1"], 0,
     "ebfc1c893e4601dad157a46699973769634c075a3f9955b6659d28f45840110d"),
    ("relation/5000", relation_doc(5000), [], 1,
     "72327a8602f74941ea3fe660a8c04c2283700eb218d900908a0d24de59ffb935"),
    ("relation/Q/600", rational_relation_doc(600), [], 1,
     "1598838e98b7f2448bb2ebedc02f6581bfd84c0a1018ec00adc5794074eb2639"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_verify_stdout_bytes(argv, code, digest, capsys):
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name,doc,args,code,digest", CONFIG_GOLDEN,
                         ids=[g[0] for g in CONFIG_GOLDEN])
def test_config_stdout_bytes(name, doc, args, code, digest, capsys, tmp_path):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(path), *args]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_relation_check_of_a_long_power_is_bounded(tmp_path):
    """The source relation of relation_doc(25000) is checked on a power of
    25001 coefficients within 20 s, interpreter start included, with the
    pinned report."""
    path = tmp_path / "relation.json"
    path.write_text(json.dumps(relation_doc(25000)))
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "wpline", "verify", "--config", str(path)],
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 1, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == RELATION_25000


#: stdout of ``verify --config`` on rational_relation_doc(2000), exit code 1
RATIONAL_RELATION_2000 = "0ab74ff67ae1fe4d72f373dfa7d06c0b81efca9df09b6a9f9fb269977fcd3de9"


def test_rational_relation_check_of_a_long_power_is_bounded(tmp_path):
    """The source relation of rational_relation_doc(2000) is checked over Q
    on integer forms of 2001 coefficients of up to 2000 bits within 20 s,
    interpreter start included, with the pinned report."""
    path = tmp_path / "relation.json"
    path.write_text(json.dumps(rational_relation_doc(2000)))
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "wpline", "verify", "--config", str(path)],
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 1, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == RATIONAL_RELATION_2000


#: stdout of ``demos/02_coordinate_algebras.py``
DEMO_02 = "be1ce4654325403bd9d3ff587c906006effa7998cf95b41a7d2f7be97017e17c"


def test_demo_02_stdout_bytes():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, str(root / "demos" / "02_coordinate_algebras.py")],
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_02
