"""Legacy setup shim.

The execution environment has no network access and no ``wheel``
package, so PEP 517 editable installs fail; this shim lets
``pip install -e . --no-use-pep517`` (or ``python setup.py develop``)
work with plain setuptools.  It declares no metadata (there is no
``pyproject.toml``); tests, examples and the benchmark all run from
the source tree with ``PYTHONPATH=src``.
"""

from setuptools import setup

setup()
