"""The interpretive float evaluation loop, kept test-side as the bit-for-bit
reference for ``poly.float_evaluator``: terms in ``terms`` order, each as
float(c) times p**k over the nonzero exponents, left to right, summed from
0.0.  On top of it, the list-based RK4 loop that ``coord.rk4_flow``'s
generated step loop must match bit for bit."""

import math

from poishom.coord import ConstraintDriftError, divergence, hamiltonian_vf


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


def rk4_reference(model, h, x0, T, dt, log_density=None, drift_tolerance=1e-6):
    """``coord.rk4_flow`` as a list-based loop over the interpretive
    evaluation: the bit-for-bit reference of its generated step loop.
    Returns (times, states, div_integral, constraint_drift) and raises what
    rk4_flow raises, with the same messages."""
    for name, value in (("T", T), ("dt", dt)):
        if not math.isfinite(value) or value <= 0:
            raise ValueError(f"{name} must be a finite positive number, got {value}")
    if not (math.isfinite(T / dt) and round(T / dt) >= 1):
        raise ValueError(f"T = {T} and dt = {dt} do not give a finite number of steps >= 1")
    X = hamiltonian_vf(model, h)
    field = X.components
    div_and_constraints = [divergence(model, X, log_density), *model.constraints]
    x = [float(c) for c in x0]
    if len(x) != model.dim:
        raise ValueError("start point length does not match the model dimension")
    f0, *residuals = eval_field(div_and_constraints, x)
    if any(abs(r) > 1e-12 for r in residuals):
        raise ValueError("initial point violates the constraints")

    def step(state, hstep):
        half, sixth = 0.5 * hstep, hstep / 6.0
        k1 = eval_field(field, state)
        k2 = eval_field(field, [s + half * k for s, k in zip(state, k1)])
        k3 = eval_field(field, [s + half * k for s, k in zip(state, k2)])
        k4 = eval_field(field, [s + hstep * k for s, k in zip(state, k3)])
        return [
            s + sixth * (a + 2 * b + 2 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)
        ]

    times, states, div_int = [0.0], [list(x)], [0.0]
    drifts = [max(map(abs, residuals), default=0.0)]
    acc = 0.0
    for k in range(1, int(round(T / dt)) + 1):
        xm = step(x, dt / 2.0)
        fm = eval_field(div_and_constraints, xm)[0]
        x = step(xm, dt / 2.0)
        f1, *residuals = eval_field(div_and_constraints, x)
        acc += dt / 6.0 * (f0 + 4.0 * fm + f1)
        f0 = f1
        if not (all(map(math.isfinite, x)) and math.isfinite(acc)):
            raise ValueError(
                f"non-finite state or divergence integral at step {k} (t = {k * dt:g}, dt = {dt})"
            )
        drift = max(map(abs, residuals), default=0.0)
        if drift > drift_tolerance:
            raise ConstraintDriftError(
                f"constraint drift {drift:.3e} exceeded {drift_tolerance:.1e} at step {k}"
            )
        times.append(k * dt)
        states.append(list(x))
        div_int.append(acc)
        drifts.append(drift)
    return times, states, div_int, drifts
