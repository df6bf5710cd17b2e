"""The interpretive float evaluation loop, kept test-side as the bit-for-bit
reference for ``poly.float_evaluator``: terms in ``terms`` order, each as
float(c) times p**k over the nonzero exponents, left to right, summed from
0.0."""


def eval_float(poly, point):
    total = 0.0
    for e, c in poly.terms.items():
        v = float(c)
        for p, k in zip(point, e):
            if k:
                v *= p ** k
        total += v
    return total


def eval_field(components, point):
    return [eval_float(c, point) for c in components]
