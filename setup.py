"""Setup shim.

The offline environment lacks the ``wheel`` package that PEP 660 editable
installs require, so this project keeps a classic ``setup.py`` and has no
pyproject.toml: ``pip install -e .`` then uses the legacy ``setup.py
develop`` path, which works offline.  All metadata lives here; the tests
need no install (``PYTHONPATH=src``), only the packages named in
``install_requires`` and on the pip line of ``.github/workflows/ci.yml``
(``tools/check_docs.py`` holds that line to what ``src/`` imports).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # ycsb/distributions.py::zeta sums multi-million-item keyspaces.
    install_requires=["numpy"],
)
