"""Golden bytes of write_net and export_obj for one tiny net of each kind.

The expected texts were produced by the per-vertex writer that preceded the
array-wide one; they pin the file format (sorted keys, indent 1, shortest
float repr, -0.0, null for a vertex at infinity) and the OBJ number format
(%.17g) independently of the code under test.
"""

import io

import numpy as np
import pytest

from multinets.circular import EuclidNet
from multinets.congruences import IsoLineGrid
from multinets.errors import InfiniteVertex
from multinets.io_json import export_obj, read_net, write_net
from multinets.projective import LIE, PLUECKER
from multinets.qnets import PlaneNet, PointNet

T = 1 / 3

RP3 = PointNet(
    [[[0.1, T, -0.0, 1.0], [5e20, 0.1, T, 1e10]], [[-0.0, 1.0, 0.1, 0.5], [T, -0.0, 2.5, -3.0]]]
)
R41 = PointNet([[[0.1, T, -0.0, 1.0, 5e20], [1.0, -0.0, 0.0, 0.0, 1.0]]], ambient="R41")
PLANES = PlaneNet([[[0.1, T, -0.0, 5e20]], [[-0.0, 1.0, 0.1, T]]])
E3_NULL = EuclidNet(
    [[[0.1, T, -0.0], [0.0, 0.0, 0.0], [5e20, 1.0, 2.0]], [[-0.0, 1.0, 0.1], [T, -0.0, 0.1], [1e-300, 3.0, -T]]],
    [[False, True, False], [False, False, False]],
)
E3 = EuclidNet(
    [[[0.1, T, -0.0], [5e20, 1.0, 2.0], [1e-300, 3.0, -T]], [[-0.0, 1.0, 0.1], [T, -0.0, 0.1], [2.0, 2.0, 2.0]]]
)
LIE_LINES = IsoLineGrid(
    [
        [[[T, -0.0, 0.0, 0.0, T, 0.0], [0.0, 0.1, 0.0, 0.0, 0.0, 0.1]]],
        [[[5e20, 0.0, 0.0, 0.0, 5e20, 0.0], [0.0, 0.0, 0.1, 0.0, 0.0, -0.1]]],
    ],
    LIE,
)
PLUECKER_LINES = IsoLineGrid(
    [
        [
            [[T, 0.0, 0.0, T, 0.0, 0.0], [0.0, 0.1, -0.0, 0.0, 0.1, 0.0]],
            [[0.0, 0.0, 5e20, 0.0, 0.0, 5e20], [0.1, 0.0, 0.0, -0.1, 0.0, 0.0]],
        ]
    ],
    PLUECKER,
)

JSON_RP3 = """{
 "ambient": "RP3",
 "data": [
  [
   0.1,
   0.3333333333333333,
   -0.0,
   1.0
  ],
  [
   5e+20,
   0.1,
   0.3333333333333333,
   10000000000.0
  ],
  [
   -0.0,
   1.0,
   0.1,
   0.5
  ],
  [
   0.3333333333333333,
   -0.0,
   2.5,
   -3.0
  ]
 ],
 "dims": [
  2,
  2
 ],
 "kind": "point_net",
 "meta": {
  "name": "rp3"
 }
}
"""

JSON_R41 = """{
 "ambient": "R41",
 "data": [
  [
   0.1,
   0.3333333333333333,
   -0.0,
   1.0,
   5e+20
  ],
  [
   1.0,
   -0.0,
   0.0,
   0.0,
   1.0
  ]
 ],
 "dims": [
  1,
  2
 ],
 "kind": "point_net"
}
"""

JSON_PLANES = """{
 "ambient": "RP3",
 "data": [
  [
   0.1,
   0.3333333333333333,
   -0.0,
   5e+20
  ],
  [
   -0.0,
   1.0,
   0.1,
   0.3333333333333333
  ]
 ],
 "dims": [
  2,
  1
 ],
 "kind": "plane_net"
}
"""

JSON_E3_NULL = """{
 "ambient": "E3",
 "data": [
  [
   0.1,
   0.3333333333333333,
   -0.0
  ],
  null,
  [
   5e+20,
   1.0,
   2.0
  ],
  [
   -0.0,
   1.0,
   0.1
  ],
  [
   0.3333333333333333,
   -0.0,
   0.1
  ],
  [
   1e-300,
   3.0,
   -0.3333333333333333
  ]
 ],
 "dims": [
  2,
  3
 ],
 "kind": "point_net"
}
"""

JSON_LIE = """{
 "ambient": "R42",
 "data": [
  [
   [
    0.3333333333333333,
    -0.0,
    0.0,
    0.0,
    0.3333333333333333,
    0.0
   ],
   [
    0.0,
    0.1,
    0.0,
    0.0,
    0.0,
    0.1
   ]
  ],
  [
   [
    5e+20,
    0.0,
    0.0,
    0.0,
    5e+20,
    0.0
   ],
   [
    0.0,
    0.0,
    0.1,
    0.0,
    0.0,
    -0.1
   ]
  ]
 ],
 "dims": [
  2,
  1
 ],
 "kind": "line_grid"
}
"""

JSON_PLUECKER = """{
 "ambient": "R33",
 "data": [
  [
   [
    0.3333333333333333,
    0.0,
    0.0,
    0.3333333333333333,
    0.0,
    0.0
   ],
   [
    0.0,
    0.1,
    -0.0,
    0.0,
    0.1,
    0.0
   ]
  ],
  [
   [
    0.0,
    0.0,
    5e+20,
    0.0,
    0.0,
    5e+20
   ],
   [
    0.1,
    0.0,
    0.0,
    -0.1,
    0.0,
    0.0
   ]
  ]
 ],
 "dims": [
  1,
  2
 ],
 "kind": "line_grid"
}
"""

OBJ_RP3 = """\
v 0.10000000000000001 0.33333333333333331 -0
v 50000000000 1.0000000000000001e-11 3.3333333333333335e-11
v -0 2 0.20000000000000001
v -0.1111111111111111 0 -0.83333333333333337
f 1 2 4 3
"""

OBJ_E3 = """\
v 0.10000000000000001 0.33333333333333331 -0
v 5e+20 1 2
v 1e-300 3 -0.33333333333333331
v -0 1 0.10000000000000001
v 0.33333333333333331 -0 0.10000000000000001
v 2 2 2
f 1 2 5 4
f 2 3 6 5
"""

WRITTEN = [
    (RP3, {"name": "rp3"}, JSON_RP3),
    (R41, None, JSON_R41),
    (PLANES, None, JSON_PLANES),
    (E3_NULL, None, JSON_E3_NULL),
    (LIE_LINES, None, JSON_LIE),
    (PLUECKER_LINES, None, JSON_PLUECKER),
]
WRITTEN_IDS = ["rp3", "r41", "plane", "e3-null", "lie", "pluecker"]


@pytest.mark.parametrize("net, meta, expected", WRITTEN, ids=WRITTEN_IDS)
def test_write_net_golden_bytes(net, meta, expected):
    buf = io.StringIO()
    write_net(net, buf, meta)
    assert buf.getvalue() == expected


@pytest.mark.parametrize("net, meta, expected", WRITTEN, ids=WRITTEN_IDS)
def test_golden_text_reads_back_to_the_same_net(net, meta, expected):
    back = read_net(expected)
    assert type(back) is type(net)
    for field in ("points", "covectors", "lines", "at_infinity"):
        if hasattr(net, field):
            a, b = getattr(net, field), getattr(back, field)
            if field == "points" and isinstance(net, EuclidNet):
                a, b = a[~net.at_infinity], b[~back.at_infinity]
            assert np.array_equal(a, b)
            # -0.0 keeps its sign
            assert np.array_equal(np.signbit(a), np.signbit(b))
    buf = io.StringIO()
    write_net(back, buf, meta)
    assert buf.getvalue() == expected


@pytest.mark.parametrize("net, expected", [(RP3, OBJ_RP3), (E3, OBJ_E3)], ids=["rp3", "e3"])
def test_export_obj_golden_bytes(net, expected):
    buf = io.StringIO()
    export_obj(net, buf)
    assert buf.getvalue() == expected


@pytest.mark.parametrize(
    "net, message",
    [
        (E3_NULL, "vertex (0,1) is at infinity"),
        (EuclidNet(E3.points, [[False, False, True], [True, False, False]]), "vertex (0,2) is at infinity"),
        (PointNet([[[1.0, 0, 0, 1], [1.0, 0, 0, 1]], [[1.0, 1, 0, 1], [0.0, 1, 0, 1e-13]]]),
         "vertex (1,1) is at infinity"),
        (R41, "OBJ export needs an RP3 or E3 net"),
        (PLANES, "cannot export object of type PlaneNet"),
        (LIE_LINES, "cannot export object of type IsoLineGrid"),
    ],
    ids=["e3-null", "e3-row-major", "rp3-w0", "r41", "plane", "lie"],
)
def test_export_obj_golden_errors(net, message):
    with pytest.raises(InfiniteVertex) as info:
        export_obj(net, io.StringIO())
    assert str(info.value) == message
