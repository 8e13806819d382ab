"""Maps that more than one test module verifies."""

from wpline import AlgebraHom, CoordinateAlgebra, GroupHom

#: (2,2) -> (2,2) sending both generators to x_1: neither admissible nor onto
CONFIG_FAIL = {"source": {"params": [], "weights": [2, 2]},
               "target": {"params": [], "weights": [2, 2]},
               "constants": {}, "pi": ["0;1,0", "0;1,0"],
               "phi": [[["1", [1, 0]]], [["1", [1, 0]]]], "field": "5"}


def non_admissible_map(field, images):
    """(2,2,2) -> (2,2) sending x_1 and x_3 to x_1: the fibers over the
    degrees with torsion x_1 hold two elements of one level, so their mult
    sum is twice the mult; ``images`` draws the generator images from the
    target and the degrees."""
    source = CoordinateAlgebra((2, 2, 2), field, [1])
    target = CoordinateAlgebra((2, 2), field, [])
    y1, y2 = target.weights.gens
    pi = GroupHom(source.weights, target.weights, [y1, y2, y1])
    return AlgebraHom.unchecked(source, target, pi, images(target, pi.gen_images))
