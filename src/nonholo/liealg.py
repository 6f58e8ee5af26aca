"""Rotation-group momentum flows: free spin, degenerate spin, and
constrained spin with multipliers.

All flows live on R^3 via the cross-product realization of the coadjoint
action: the drift is always m x v for some angular velocity v, which makes
energy conservation a one-line antisymmetry identity.  The constrained
flow is a fixed linear map of the free drift, since its Gram matrix does
not depend on m, so that map is built once per run.
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


def euler_arnold_rhs(m, B):
    """m' = m x (B m), as floats; B is a 3x3 array, an inverse inertia or a
    degenerate operator."""
    # the product stays a numpy call: its BLAS kernel may fuse multiply-adds
    return _cross(m, (B @ m).tolist())


def _pairings(m, Ainv, constraints):
    """<a_i, Ainv m> for each constraint row a_i."""
    return np.array([float(a @ (Ainv @ m)) for a in constraints])


def constrained_flow(A, constraints):
    """(P, K, A^{-1}) of the constrained momentum flow
    m' = m x (A^{-1}m) + sum_i lambda_i a_i.

    The multipliers keep every pairing <a_i, A^{-1} m> constant along the
    flow, and they are linear in the free drift: with f = m x A^{-1}m, the
    flow is m' = P f and its multipliers are lambda = K f, where
    K = -G^{-1} a A^{-1} for the Gram matrix G = a A^{-1} a^T and
    P = I + a^T K.  None of these depends on m, so they are computed once
    here, after the conditioning check, and no linear solve runs per
    evaluation.
    """
    try:
        Ainv = np.linalg.inv(_as_operator(A))
    except np.linalg.LinAlgError as exc:
        raise SingularGram("inertia operator A is singular") from exc
    a = np.asarray(constraints, dtype=float).reshape(-1, 3)
    if len(a) > 2:
        raise ValueError("at most two independent constraints on a 3d algebra")
    # P depends only on the constraint directions: rows scaled to a largest
    # entry of 1 keep the Gram matrix and K clear of underflow and overflow,
    # and a row's length alone cannot make the Gram matrix look singular
    size = np.abs(a).max(axis=1, keepdims=True)
    if not np.all(size > 0):
        raise SingularGram("constraint Gram matrix is singular: a constraint row is zero")
    u = a / size
    gram = u @ Ainv @ u.T
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularGram("constraint Gram matrix is singular")
    K = -np.linalg.solve(gram, u @ Ainv)
    return np.eye(3) + u.T @ K, K / size, Ainv


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
            return euler_arnold_rhs(m, B)

        times, states = integrate(rhs, m0, t_span, stepper, record_every=record_every)
        ledger = {
            "energy": np.array([spin_energy(m, B) for m in states]),
            "casimir": np.einsum("ij,ij->i", states, states),
        }
    elif kind == "constrained":
        A = _as_operator(flow[1])
        constraints = np.asarray(flow[2], dtype=float).reshape(-1, 3)
        P, K, Ainv = constrained_flow(A, constraints)

        def rhs(t, m):
            return (P @ euler_arnold_rhs(m, Ainv)).tolist()

        times, states = integrate(rhs, m0, t_span, stepper, record_every=record_every)
        lams = np.array([K @ euler_arnold_rhs(m, Ainv) for m in states])
        ledger = {
            "energy": np.array([spin_energy(m, Ainv) for m in states]),
            "casimir": np.einsum("ij,ij->i", states, states),
            "constraint_max": np.array(
                [np.max(np.abs(_pairings(m, Ainv, constraints))) for m in states]
            ),
        }
        for i in range(lams.shape[1]):
            ledger[f"lambda_{i}"] = lams[:, i]
    else:
        raise ValueError(f"unknown flow kind {kind!r}")
    return Trajectory(times=times, columns=["m1", "m2", "m3"], states=states, ledger=ledger)
