"""Every demo script, and every python block of the README, runs to
completion against the current API, and every module name the README
cites resolves."""

import functools
import pathlib
import re
import runpy
import shutil

import pytest

import dqsim

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the file a demo writes next to itself that the repository keeps, by demo
KEPT_OUTPUTS = {"03_bounds_sweep": "bounds_sweep.csv"}
# a backticked dotted name of one of the package's modules, such as `protocol.run`
CITED_NAME = re.compile(r"`((?:qcore|protocol|metrics|adversary|cli|stats)(?:\.\w+)+)")


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(tmp_path, capsys, demo):
    # a copy, since a demo may write its output next to the script
    script = shutil.copy(demo, tmp_path)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
    if demo.stem in KEPT_OUTPUTS:
        kept = KEPT_OUTPUTS[demo.stem]
        assert (tmp_path / kept).read_bytes() == (demo.parent / kept).read_bytes()


def test_readme_python_blocks_run():
    # the blocks run in order in one namespace, as a reader pasting them would
    readme = ROOT / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)


def test_readme_cited_names_resolve():
    # a name removed or moved without its README sentence fails here
    names = set(CITED_NAME.findall((ROOT / "README.md").read_text(encoding="utf-8")))
    assert len(names) > 40
    unresolved = [name for name in sorted(names) if functools.reduce(
        lambda owner, part: getattr(owner, part, None), name.split("."), dqsim) is None]
    assert not unresolved
