import re
from pathlib import Path

import hrrpgnn


def test_public_names_resolve_and_version_matches_pyproject():
    missing = [name for name in hrrpgnn.__all__ if getattr(hrrpgnn, name, None) is None]
    assert not missing, f"__all__ names with no definition: {missing}"
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.split("[project]", 1)[1].split("\n[", 1)[0]
    declared = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M).group(1)
    assert hrrpgnn.__version__ == declared
