"""The CI workflow parses with every job under its own key.

PyYAML resolves a repeated mapping key by keeping the last value, so a job
whose header line is lost silently merges its ``runs-on`` and ``steps`` into
the job above it.  The loader here rejects repeated keys instead.
"""

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


def test_workflow_jobs_have_unique_keys():
    with pytest.raises(yaml.constructor.ConstructorError, match="repeated key 'a'"):
        yaml.load("a: 1\na: 2\n", Loader=_UniqueKeyLoader)
    jobs = yaml.load(WORKFLOW.read_text(), Loader=_UniqueKeyLoader)["jobs"]
    assert list(jobs) == ["tests", "numpy-no-simd-dispatch", "numpy-only"]
