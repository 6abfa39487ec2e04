"""The public API docstrings are runnable and correct.

Every example in the facade's docstrings (``Database``, ``Session``,
``QueryBuilder``, ``RuntimeConfig``, ``QueryResult``) and in the two
arrival drivers (``Server``, ``run_closed_system``) executes under
``doctest`` here and in the CI docs job (which additionally runs
``pytest --doctest-modules`` over ``src/repro/db``,
``src/repro/server`` and ``src/repro/workload``), so the documented
usage cannot drift from the implementation.
"""

import doctest

import pytest

import repro.db.builder
import repro.db.config
import repro.db.result
import repro.db.session
import repro.server.server
import repro.workload.driver

DOCUMENTED_MODULES = [
    repro.db.builder,
    repro.db.config,
    repro.db.result,
    repro.db.session,
    repro.server.server,
    repro.workload.driver,
]


@pytest.mark.parametrize(
    "module", DOCUMENTED_MODULES, ids=lambda m: m.__name__
)
def test_module_doctests_pass(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, (
        f"{results.failed} doctest failure(s) in {module.__name__}"
    )


def test_every_public_db_class_has_an_example():
    """The documented surface keeps its runnable examples."""
    for obj in (
        repro.db.session.Database,
        repro.db.session.Session,
        repro.db.builder.QueryBuilder,
        repro.db.config.RuntimeConfig,
        repro.db.result.QueryResult,
        repro.server.server.Server,
        repro.workload.driver.run_closed_system,
    ):
        assert ">>>" in (obj.__doc__ or ""), (
            f"{obj.__name__} lost its doctest example"
        )
