"""The CI workflow parses with every job under its own key, and every job
runs the whole test suite.

PyYAML resolves a repeated mapping key by keeping the last value, so a job
whose header line is lost silently merges its ``runs-on`` and ``steps`` into
the job above it.  The loader here rejects repeated keys instead.

A job that ran a hand-kept list of test modules would test less than
tier-1 and, as hypothesis takes literals from the loaded package modules
into its pool, draw other CLI contract examples (the library contract's
seeded numpy draw is the same in any job); the tests that need scipy skip
themselves instead.
"""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


class _UniqueKeyLoader(yaml.SafeLoader):
    pass


def _unique_mapping(loader, node):
    mapping = {}
    for key_node, value_node in node.value:
        key = loader.construct_object(key_node, deep=True)
        if key in mapping:
            raise yaml.constructor.ConstructorError(
                None, None, f"repeated key {key!r}", key_node.start_mark
            )
        mapping[key] = loader.construct_object(value_node, deep=True)
    return mapping


_UniqueKeyLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _unique_mapping
)


def _jobs():
    return yaml.load(WORKFLOW.read_text(), Loader=_UniqueKeyLoader)["jobs"]


def test_workflow_jobs_have_unique_keys():
    with pytest.raises(yaml.constructor.ConstructorError, match="repeated key 'a'"):
        yaml.load("a: 1\na: 2\n", Loader=_UniqueKeyLoader)
    assert list(_jobs()) == ["tests", "numpy-no-simd-dispatch", "numpy-only"]


# the tier-1 command, to which a job may add pytest's reporting flags
TIER_1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"


@pytest.mark.parametrize("job", ["tests", "numpy-no-simd-dispatch", "numpy-only"])
def test_every_job_runs_the_whole_suite(job):
    lines = [line.strip() for step in _jobs()[job]["steps"]
             for line in step.get("run", "").splitlines()]
    tier_1 = [line for line in lines if line.startswith(TIER_1)]
    assert tier_1, f"{job} does not run {TIER_1!r}"
    for line in tier_1:  # flags only: no test path narrows the run
        assert all(arg.startswith("-") for arg in line[len(TIER_1):].split()), line
    assert not [line for line in lines if re.search(r"tests/test_\w*\.py", line)]
