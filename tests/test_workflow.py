"""The CI workflow parses with every job under its own key, every job
runs the whole test suite, and the tests, pyproject.toml and every job
name the same third-party dependencies.

PyYAML resolves a repeated mapping key by keeping the last value, so a job
whose header line is lost silently merges its ``runs-on`` and ``steps`` into
the job above it.  The loader here rejects repeated keys instead.

A job that ran a hand-kept list of test modules would test less than
tier-1; the tests that need scipy skip themselves instead, and every drawn
input comes from ``contract_draw``'s seeded generator, the same in any job.
A dependency the tests no longer import must leave pyproject.toml and each
job's install line, and one they start to import must enter both.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
JOBS = ["tests", "numpy-no-simd-dispatch", "numpy-only"]
# tomllib's backport, tried only where Python 3.10 lacks tomllib
STDLIB = sys.stdlib_module_names | {"tomli"}
DISTRIBUTIONS = {"yaml": "pyyaml"}  # import names that are not the distribution's
BUILD = {"setuptools", "wheel"}  # the tests job builds the console script with these


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
    assert list(_jobs()) == JOBS


# the tier-1 command, to which a job may add pytest's reporting flags
TIER_1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"


@pytest.mark.parametrize("job", JOBS)
def test_every_job_runs_the_whole_suite(job):
    lines = [line.strip() for step in _jobs()[job]["steps"]
             for line in step.get("run", "").splitlines()]
    tier_1 = [line for line in lines if line.startswith(TIER_1)]
    assert tier_1, f"{job} does not run {TIER_1!r}"
    for line in tier_1:  # flags only: no test path narrows the run
        assert all(arg.startswith("-") for arg in line[len(TIER_1):].split()), line
    assert not [line for line in lines if re.search(r"tests/test_\w*\.py", line)]


def _imported() -> set:
    """The distributions of the third-party modules that the files under
    tests/ import, by import statement or ``pytest.importorskip``."""
    modules = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "importorskip":
                modules.add(node.args[0].value)
    local = {"twostate", *(path.stem for path in (ROOT / "tests").glob("*.py"))}
    top = {module.partition(".")[0] for module in modules} - STDLIB - local
    return {DISTRIBUTIONS.get(name, name) for name in top}


def _declared() -> set:
    """The distributions of pyproject.toml's dependencies and test extra."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no tomllib
        tomllib = pytest.importorskip("tomli")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = [*project["dependencies"], *project["optional-dependencies"]["test"]]
    return {re.match(r"[\w.-]+", requirement)[0].lower() for requirement in requirements}


def test_the_tests_import_exactly_the_declared_dependencies():
    assert _imported() == _declared()


@pytest.mark.parametrize("job", JOBS)
def test_every_job_installs_the_declared_dependencies(job):
    installed = {word for step in _jobs()[job]["steps"]
                 for line in step.get("run", "").splitlines() if "pip install" in line
                 for word in line.partition("pip install")[2].split()
                 if not word.startswith(("-", "."))}
    declared = _declared() - ({"scipy"} if job == "numpy-only" else set())
    assert installed - BUILD == declared
