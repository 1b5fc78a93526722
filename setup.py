"""Packaging metadata of the ``repro`` package.

This file is the project's only packaging metadata (there is no
pyproject.toml); ``pip install -e .`` installs from it, also offline.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of SABRE: Tackling the Qubit Mapping Problem for "
        "NISQ-Era Quantum Devices (ASPLOS 2019)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The native search kernel's source: an installed repro compiles it
    # on first import (repro.core.native) and routes in Python without it.
    package_data={"repro.core": ["_search.c"]},
    # 3.10 floor: Gate is a dataclass(slots=True), a 3.10+ construct
    # (CI tests 3.10-3.12).
    python_requires=">=3.10",
    install_requires=["numpy>=1.20"],
)
