"""Build script: compiles the kernel extension when a toolchain is present.

The extension is optional; a missing Cython or a failed compile leaves the
pure-Python kernels in charge.
"""
from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Best-effort extension build: warn instead of failing the install."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler or toolchain missing
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(f"WARNING: compiled kernels unavailable, using pure Python ({exc})")


def extensions():
    try:
        from Cython.Build import cythonize
    except ImportError:
        print("WARNING: Cython not installed, skipping compiled kernels")
        return []
    return cythonize(
        [Extension("permpat._kernels", ["src/permpat/_kernels.pyx"])],
        compiler_directives={"language_level": "3"},
    )


setup(
    ext_modules=extensions(),
    cmdclass={"build_ext": optional_build_ext},
)
