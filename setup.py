"""Packaging for the repro library and the ``repro`` console command.

Offline boxes without the ``wheel`` package can install with
``python setup.py develop --no-deps`` instead of ``pip install -e .``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION = re.search(
    r'__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "_version.py").read_text(
        encoding="utf-8"
    ),
).group(1)

setup(
    name="repro-uap",
    version=_VERSION,
    description=(
        "Reproduction of 'Cost-Effective Low-Delay Cloud Video "
        "Conferencing' (Hajiesmaili et al., ICDCS 2015)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.fleet.library": ["*.yaml"]},
    include_package_data=True,
    python_requires=">=3.10",
    install_requires=["numpy", "PyYAML", "scipy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
