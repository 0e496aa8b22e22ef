"""Cross-backend differential tests: every algorithm, every backend.

The kernel layer must be invisible in the output: for any database and
support, every algorithm must report the identical closed family under
every registered backend, serial or batched.  Each miner has one code
path whatever backend runs it, so its operation counters must be
identical across backends too.
"""

from functools import lru_cache

import pytest

from repro.closure.verify import check_closed_family
from repro.datasets.gene_expression import yeast_compendium
from repro.mining import ALGORITHMS, mine
from repro.stats import OperationCounters

from ..conftest import backend_params, make_random_db

SEEDS = range(6)


@lru_cache(maxsize=None)
def wide_yeast_db():
    """Yeast-shaped input with 4100 transactions (genes): its tid masks
    span 65 words, so numpy's >= 64-word half-split popcount engages."""
    return yeast_compendium(
        n_genes=4100,
        n_conditions=4,
        module_condition_frac=0.5,
        seed=3,
        orientation="genes-as-transactions",
    )


def mine_with_counters(db, smin, algorithm, backend):
    counters = OperationCounters()
    result = dict(
        mine(db, smin, algorithm=algorithm, backend=backend, counters=counters)
    )
    return result, counters.as_dict()


def assert_parity(db, smin, algorithm, backend, label=""):
    """Same family as the reference, same counters as on bitint."""
    reference = dict(mine(db, smin, algorithm="ista", backend="bitint"))
    got, counters = mine_with_counters(db, smin, algorithm, backend)
    assert got == reference, label
    if backend != "bitint":
        _, bitint_counters = mine_with_counters(db, smin, algorithm, "bitint")
        assert counters == bitint_counters, label


@pytest.mark.parametrize("backend", backend_params())
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_backend_parity_random_dbs(algorithm, backend):
    for seed in SEEDS:
        db = make_random_db(seed, max_transactions=12, max_items=9)
        smin = 1 + seed % 3
        assert_parity(db, smin, algorithm, backend, f"seed={seed} smin={smin}")


@pytest.mark.parametrize("backend", backend_params())
def test_backend_parity_verified_against_oracle(backend, table1_db):
    for smin in (1, 2, 3):
        result = mine(table1_db, smin, algorithm="ista", backend=backend)
        check_closed_family(table1_db, result, smin)


@pytest.mark.parametrize("backend", backend_params())
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_backend_parity_wide_dense(algorithm, backend):
    """Dense rows, and wide tid masks — where the batched kernels work."""
    db = make_random_db(97, max_transactions=8, max_items=12, density=0.8)
    assert_parity(db, 2, algorithm, backend, "dense")
    assert_parity(wide_yeast_db(), 60, algorithm, backend, "wide yeast")


def test_env_var_selects_backend_end_to_end(monkeypatch, table1_db):
    from repro.kernels import BACKEND_ENV_VAR

    monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
    via_env = dict(mine(table1_db, 2, algorithm="carpenter-table"))
    monkeypatch.delenv(BACKEND_ENV_VAR)
    assert via_env == dict(mine(table1_db, 2, algorithm="carpenter-table"))


def test_mine_rejects_unknown_backend(table1_db):
    with pytest.raises(ValueError):
        mine(table1_db, 2, backend="cuda")
