"""Setuptools shim.

The build environment used for this reproduction has no ``wheel`` package and
no network access, so PEP 517/660 editable builds (which require building a
wheel) are unavailable.  Keeping a ``setup.py`` lets ``pip install -e .`` fall
back to the legacy ``setup.py develop`` code path, which works offline.
There is no ``pyproject.toml``: the project metadata is the ``setup()`` call
below (tests and benchmarks do not install anything; they run with
``PYTHONPATH=src``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
