"""Setup shim + optional native-extension build.

All project metadata lives in ``pyproject.toml``; this file exists so that
``pip install -e .`` works in offline environments whose setuptools lacks
the ``wheel`` package required by PEP 660 editable installs
(``pip install -e . --no-build-isolation --no-use-pep517``), and to build
the optional compiled kernel core ``repro.kernels._native``.

The extension is *optional by default*: a host without a C toolchain
still installs cleanly and runs on the dependency-free python backend,
which gives bit-identical answers.  Set ``REPRO_REQUIRE_NATIVE=1`` to
turn a failed compile into a hard install error (used by CI jobs that
exist to prove the native path).  Build in place for development
with::

    python setup.py build_ext --inplace
"""

import os

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Build the native kernels if possible; degrade politely if not."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # pragma: no cover - toolchain-dependent
            self._handle(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # pragma: no cover - toolchain-dependent
            self._handle(exc)

    @staticmethod
    def _handle(exc):
        if os.environ.get("REPRO_REQUIRE_NATIVE"):
            raise
        import warnings

        warnings.warn(
            f"could not build repro.kernels._native ({exc}); the package "
            "will fall back to the python kernel backend "
            "(set REPRO_REQUIRE_NATIVE=1 to make this fatal)",
            RuntimeWarning,
            stacklevel=1,
        )


setup(
    ext_modules=[
        Extension(
            "repro.kernels._native",
            sources=["src/repro/kernels/_native.c"],
            extra_compile_args=["-O3"],
        )
    ],
    cmdclass={"build_ext": optional_build_ext},
)
