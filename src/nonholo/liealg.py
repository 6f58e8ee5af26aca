"""Rotation-group momentum flows: free spin, degenerate spin, and
constrained spin with multipliers.

All flows live on R^3 via the cross-product realization of the coadjoint
action: the drift is always m x v for some angular velocity v, which makes
energy conservation a one-line antisymmetry identity.
"""

import numpy as np

from nonholo.errors import SingularGram
from nonholo.numkit import integrate
from nonholo.trajectory import Trajectory


def _as_operator(B):
    B = np.asarray(B, dtype=float)
    if B.shape == (3,):
        return np.diag(B)
    if B.shape != (3, 3):
        raise ValueError("operator must be a length-3 diagonal or a 3x3 matrix")
    return B


def _cross(m, w):
    """m x w of two 3-vectors: the products and differences of np.cross."""
    m0, m1, m2 = m
    w0, w1, w2 = w
    return [m1 * w2 - m2 * w1, m2 * w0 - m0 * w2, m0 * w1 - m1 * w0]


def _euler_arnold(m, B):
    # the product stays a numpy call: its BLAS kernel may fuse multiply-adds
    return _cross(m, (B @ m).tolist())


def euler_arnold_rhs(m, B):
    """m' = m x (B m); B may be an inverse inertia or a degenerate operator."""
    return np.array(_euler_arnold(np.asarray(m, dtype=float), _as_operator(B)))


def constraint_values(m, A, constraints):
    """The pairings <a_i, A^{-1} m> that the constrained flow preserves."""
    Ainv = np.linalg.inv(_as_operator(A))
    return np.array([float(a @ (Ainv @ m)) for a in constraints])


def _constrained_flow(A, constraints):
    """The map m -> (m', lambda) of the constrained momentum flow, and A^{-1}.

    A^{-1}, the Gram matrix and its conditioning do not depend on m and are
    computed once here.
    """
    try:
        Ainv = np.linalg.inv(_as_operator(A))
    except np.linalg.LinAlgError as exc:
        raise SingularGram("inertia operator A is singular") from exc
    a = np.asarray(constraints, dtype=float).reshape(-1, 3)
    if len(a) > 2:
        raise ValueError("at most two independent constraints on a 3d algebra")
    gram = a @ Ainv @ a.T
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularGram("constraint Gram matrix is singular")

    def flow(m):
        free = _euler_arnold(m, Ainv)
        rhsvec = -(a @ (Ainv @ free))
        try:
            lam = np.linalg.solve(gram, rhsvec)
        except np.linalg.LinAlgError as exc:
            raise SingularGram("constraint Gram matrix is singular") from exc
        return [f + c for f, c in zip(free, (a.T @ lam).tolist())], lam

    return flow, Ainv


def eps_rhs(m, A, constraints):
    """Constrained momentum flow: m' = m x (A^{-1}m) + sum_i lambda_i a_i.

    The multipliers solve the linear system that keeps every pairing
    <a_i, A^{-1} m> constant along the flow.
    """
    flow, _ = _constrained_flow(A, constraints)
    mdot, lam = flow(np.asarray(m, dtype=float))
    return np.array(mdot), lam


def restricted_inverse_inertia(A, a):
    """A^{-1} compressed to the plane a(v) = 0: P A^{-1} P with the
    orthogonal projector P along a."""
    A = _as_operator(A)
    a = np.asarray(a, dtype=float)
    P = np.eye(3) - np.outer(a, a) / (a @ a)
    return P @ np.linalg.inv(A) @ P


def spin_energy(m, B):
    return 0.5 * float(np.asarray(m) @ (_as_operator(B) @ np.asarray(m)))


def integrate_lie(flow, m0, t_span, stepper, record_every=1):
    """Integrate one of the momentum flows and record its invariants.

    ``flow`` is either ("free", B) for m' = m x (Bm) or
    ("constrained", A, constraints).  The ledger tracks the energy, the
    squared momentum norm, and (constrained case) the multipliers and the
    worst constraint pairing.
    """
    kind = flow[0]
    m0 = np.asarray(m0, dtype=float)
    if kind == "free":
        B = _as_operator(flow[1])

        def rhs(t, m):
            return _euler_arnold(m, B)

        times, states = integrate(rhs, m0, t_span, stepper, record_every=record_every)
        ledger = {
            "energy": np.array([spin_energy(m, B) for m in states]),
            "casimir": np.einsum("ij,ij->i", states, states),
        }
    elif kind == "constrained":
        A = _as_operator(flow[1])
        constraints = np.asarray(flow[2], dtype=float).reshape(-1, 3)
        flow_at, Ainv = _constrained_flow(A, constraints)

        def rhs(t, m):
            return flow_at(m)[0]

        times, states = integrate(rhs, m0, t_span, stepper, record_every=record_every)
        lams = np.array([flow_at(m)[1] for m in states])
        ledger = {
            "energy": np.array([spin_energy(m, Ainv) for m in states]),
            "casimir": np.einsum("ij,ij->i", states, states),
            "constraint_max": np.array(
                [np.max(np.abs(constraint_values(m, A, constraints))) for m in states]
            ),
        }
        for i in range(lams.shape[1]):
            ledger[f"lambda_{i}"] = lams[:, i]
    else:
        raise ValueError(f"unknown flow kind {kind!r}")
    return Trajectory(times=times, columns=["m1", "m2", "m3"], states=states, ledger=ledger)
