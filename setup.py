"""Setuptools entry point: ``pip install -e .`` installs the ``repro``
package from ``src/``.

Running from a checkout needs no install at all: ``PYTHONPATH=src`` (set by
the Makefile and the repository-root ``conftest.py``) is enough.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=("Reproduction of the Aethereal on-chip network interface "
                 "(Radulescu et al., DATE 2004)"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # 3.10+: the hot-path packet/flit dataclasses use dataclass(slots=True).
    python_requires=">=3.10",
    install_requires=["networkx"],
)
