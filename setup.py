"""Legacy setup shim.

The project metadata lives in pyproject.toml; this file exists so that
``pip install -e .`` works in offline environments that lack the
``wheel`` package required for PEP 660 editable installs.
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
