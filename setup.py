"""Packaging for the repro library.

Metadata is kept here (rather than pyproject.toml) so that the package
installs editable (``pip install -e .``) in offline environments whose
setuptools/wheel combination predates PEP 660 support.  The ``repro`` console
script is the CLI entry point (``repro route``, ``repro batch``, ...).

The version is parsed from ``src/repro/__init__.py`` (the single source of
truth, also served by ``repro --version``) rather than imported, so building
a wheel does not require the runtime dependencies.
"""

import os
import re

from setuptools import find_packages, setup


def read_version() -> str:
    init_path = os.path.join(os.path.dirname(__file__), "src", "repro", "__init__.py")
    with open(init_path, "r", encoding="utf-8") as handle:
        match = re.search(r'^__version__ = "([^"]+)"', handle.read(), re.MULTILINE)
    if match is None:
        raise RuntimeError("cannot find __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro-ast-dme",
    version=read_version(),
    description="Associative skew clock routing (AST-DME) reproduction",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.8",
    install_requires=[
        "numpy",
        "scipy",
    ],
    # networkx only backs the graph exports (ClockTree.to_networkx,
    # RcTree.graph); routing, validation and the service never import it.
    extras_require={"graph": ["networkx"]},
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ]
    },
)
