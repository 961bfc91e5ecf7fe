"""Package metadata and install script.

The repository has no ``pyproject.toml``: this file is the package's
only metadata.  ``pip install -e .`` / ``python setup.py develop`` work
with it even where setuptools predates PEP 660 editable wheels (no
``wheel`` package available).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["networkx>=3.0", "numpy>=1.24"],
)
