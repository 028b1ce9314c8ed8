"""Shared instance factories and the acceptance-result summary hook."""

import numpy as np

from scoregap import CostMatrix, PopulationModel, ProjectionMatrix, Subgroup

# populated by test_acceptance, printed at the end of the run
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for line in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line("  " + line)


def random_orthonormal(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    """d x k matrix with orthonormal columns."""
    q, _ = np.linalg.qr(rng.standard_normal((d, max(k, 1))))
    return q[:, :k]


def random_projection(rng: np.random.Generator, d: int, k: int) -> ProjectionMatrix:
    return ProjectionMatrix(random_orthonormal(rng, d, k))


def random_spd(rng: np.random.Generator, d: int, lo: float = 0.3, hi: float = 3.0) -> np.ndarray:
    q = random_orthonormal(rng, d, d)
    eigs = rng.uniform(lo, hi, size=d)
    a = q @ np.diag(eigs) @ q.T
    return (a + a.T) / 2.0


def random_subgroup(rng: np.random.Generator, d: int, name: str = "g",
                    rank: int = None, identity_cost: bool = False) -> Subgroup:
    if rank is None:
        rank = int(rng.integers(1, d + 1))
    cost = CostMatrix.identity(d) if identity_cost else CostMatrix(random_spd(rng, d))
    return Subgroup(name=name, cost=cost, projection=random_projection(rng, d, rank))


def random_population(rng: np.random.Generator, d: int = None,
                      identity_cost: bool = False) -> PopulationModel:
    """Generic instance: random ranks, random SPD costs, Gaussian w*."""
    if d is None:
        d = int(rng.integers(2, 13))
    pop = PopulationModel(
        group1=random_subgroup(rng, d, "g1", identity_cost=identity_cost),
        group2=random_subgroup(rng, d, "g2", identity_cost=identity_cost),
        w_star=rng.standard_normal(d),
    )
    if pop.degenerate:
        # vanishing total pull has probability zero under this draw; a
        # degenerate sample would make downstream assertions vacuous
        raise AssertionError("random factory produced a degenerate population")
    return pop


def orthogonal_population(rng: np.random.Generator, d: int = None) -> PopulationModel:
    """Two subgroups whose perceived subspaces are mutually orthogonal."""
    if d is None:
        d = int(rng.integers(3, 13))
    r1 = int(rng.integers(1, d))
    r2 = int(rng.integers(1, d - r1 + 1))
    basis = random_orthonormal(rng, d, r1 + r2)
    return PopulationModel(
        group1=Subgroup(
            name="g1",
            cost=CostMatrix(random_spd(rng, d)),
            projection=ProjectionMatrix(basis[:, :r1]),
        ),
        group2=Subgroup(
            name="g2",
            cost=CostMatrix(random_spd(rng, d)),
            projection=ProjectionMatrix(basis[:, r1:]),
        ),
        w_star=rng.standard_normal(d),
    )


def scaled_population(rng: np.random.Generator, d: int = None,
                      scale: float = None) -> PopulationModel:
    """Identical subspaces, proportional costs: A2 = scale * A1."""
    if d is None:
        d = int(rng.integers(2, 13))
    if scale is None:
        scale = float(rng.uniform(0.1, 10.0))
    rank = int(rng.integers(1, d + 1))
    projection = random_projection(rng, d, rank)
    a1 = random_spd(rng, d)
    return PopulationModel(
        group1=Subgroup(name="g1", cost=CostMatrix(a1), projection=projection),
        group2=Subgroup(name="g2", cost=CostMatrix(scale * a1), projection=projection),
        w_star=rng.standard_normal(d),
    )


def random_unit_rules(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    w = rng.standard_normal((n, d))
    return w / np.linalg.norm(w, axis=1, keepdims=True)

