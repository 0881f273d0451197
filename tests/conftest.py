import itertools
import os
from fractions import Fraction

import pytest

from treemeasure import (
    Context,
    NatSeq,
    SpinSet,
    TransitionKernel,
    TreeGeometry,
    constraint_in,
    from_constraints,
    markov_family,
    product_family,
)

F = Fraction

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(scope="session", autouse=True)
def src_on_subprocess_path():
    """Python subprocesses the tests start import the package from the source
    tree, as the test process does through pytest's `pythonpath` setting."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(scope="session")
def ctx_k2s2():
    return Context(TreeGeometry(2), SpinSet.finite(2))


@pytest.fixture(scope="session")
def chain_fam(ctx_k2s2):
    # root weights (1/2, 1/2), kernel rows (2/3, 1/3) and (1/3, 2/3)
    return markov_family(
        ctx_k2s2,
        [F(1, 2), F(1, 2)],
        [[F(2, 3), F(1, 3)], [F(1, 3), F(2, 3)]],
    )


@pytest.fixture(scope="session")
def uniform_fam(ctx_k2s2):
    return product_family(ctx_k2s2, [F(1, 2), F(1, 2)])


@pytest.fixture(scope="session")
def nat_ctx():
    return Context(TreeGeometry(2), SpinSet.naturals())


@pytest.fixture(scope="session")
def counting_fam(nat_ctx):
    # unit weight on every root value; P(q, r) = 2**-(r+1) for every q
    lam = NatSeq.constant(1)
    kernel = TransitionKernel.for_naturals(NatSeq.geometric(F(1, 2), F(1, 2)))
    return markov_family(nat_ctx, lam, kernel)


def all_atoms(ctx, n):
    size = ctx.tree.ball_size(n)
    return list(itertools.product(range(ctx.spins.size), repeat=size))


def atom_cylinder(ctx, values):
    return from_constraints(
        ctx, {v: constraint_in([q]) for v, q in enumerate(values)}
    )
