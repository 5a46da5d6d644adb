"""Packaging metadata and the console entry points.

Kept as a plain ``setup.py`` (instead of pyproject metadata) because the
offline environment ships a setuptools without the ``wheel`` package, which
PEP 660 editable installs require; ``python setup.py develop`` still works.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.8.0",
    description="Reproduction of 'A New Approach to Component Testing' "
                "(Brinkmeyer, DATE 2005)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    entry_points={
        "console_scripts": [
            "repro-compile=repro.cli_tools:main_compile",
            "repro-run=repro.cli_tools:main_run",
            "repro-report=repro.cli_tools:main_report",
            "repro-campaign=repro.cli:main_campaign",
            "repro-lint=repro.lint.cli:main",
            "repro-serve=repro.service.cli:main_serve",
        ],
    },
)
