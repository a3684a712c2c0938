"""Public-API contract tests: exports, `__all__` consistency, docstrings.

Guards the surface a downstream user depends on: every name advertised in a
package's ``__all__`` must resolve, every public module/class must carry a
docstring, and the headline entry points must stay importable from their
documented locations.
"""

import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

_PACKAGES = [
    "repro",
    "repro.nn",
    "repro.nn.pruning",
    "repro.nn.quantization",
    "repro.tpc",
    "repro.core",
    "repro.train",
    "repro.baselines",
    "repro.metrics",
    "repro.perf",
    "repro.daq",
    "repro.serve",
    "repro.io",
    "repro.viz",
    "repro.cli",
    "repro.analysis",
]


class TestExports:
    @pytest.mark.parametrize("name", _PACKAGES)
    def test_importable(self, name):
        assert importlib.import_module(name) is not None

    @pytest.mark.parametrize("name", _PACKAGES)
    def test_all_names_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol!r}"

    @pytest.mark.parametrize("name", _PACKAGES)
    def test_no_public_definition_escapes_all(self, name):
        """The reverse direction of the ``__all__`` contract: every public
        function/class *defined* in the module must be advertised, so the
        declared surface and the actual surface cannot drift apart."""

        module = importlib.import_module(name)
        declared = getattr(module, "__all__", None)
        if declared is None:
            pytest.skip(f"{name} declares no __all__")
        undeclared = [
            symbol for symbol, obj in vars(module).items()
            if not symbol.startswith("_")
            and symbol not in declared
            and (inspect.isclass(obj) or inspect.isfunction(obj))
            and getattr(obj, "__module__", "") == module.__name__
        ]
        assert not undeclared, (
            f"{name} defines public names missing from __all__: {undeclared}"
        )

    def test_static_all_audit_is_clean(self):
        """The static half of the two-way check: ``repro.analysis.api_lint``
        walks every module *without importing it* and errors (AP002) on any
        ``__all__`` entry with no corresponding binding."""

        import repro
        from repro.analysis.api_lint import audit_package

        src_root = pathlib.Path(repro.__file__).resolve().parent.parent
        errors = [d for d in audit_package(src_root) if d.severity == "error"]
        assert not errors, [d.format() for d in errors]

    @pytest.mark.parametrize("name", _PACKAGES)
    def test_module_docstring(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"


class TestHeadlineEntryPoints:
    def test_documented_quickstart_imports(self):
        """The README quickstart's import lines must keep working."""

        from repro.core import BCAECompressor, build_model  # noqa: F401
        from repro.tpc import TINY_GEOMETRY, generate_wedge_dataset  # noqa: F401
        from repro.train import TrainConfig, Trainer  # noqa: F401

    def test_model_names_registry(self):
        from repro.core import MODEL_NAMES, build_model

        for name in MODEL_NAMES:
            model = build_model(name, wedge_spatial=(16, 24, 30), seed=0, **(
                {"m": 1, "n": 1, "d": 1} if name == "bcae_2d" else {}
            ))
            assert model.encoder_parameters() > 0

    def test_serving_import_set_loads_no_scipy(self):
        """The compress/serve path never calls scipy, so importing it — and
        looking up the sparse codec, which imports ``repro.baselines`` —
        must not load scipy (~90 modules, ~20 MB, ~0.4 s of every cold
        start).  A fresh interpreter, because this one may have loaded
        scipy already."""

        code = (
            "import sys\n"
            "import repro.core, repro.io, repro.perf, repro.rate, "
            "repro.serve, repro.tpc\n"
            "from repro.rate import SPARSE_CODEC_ID, classical_codec\n"
            "classical_codec(SPARSE_CODEC_ID)\n"
            "print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy'))\n")
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_cli_console_entry(self):
        from repro.cli import main

        assert callable(main)

    def test_version(self):
        import repro

        assert repro.__version__


class TestDocstrings:
    @pytest.mark.parametrize("name", _PACKAGES)
    def test_public_classes_documented(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            obj = getattr(module, symbol)
            if inspect.isclass(obj) and obj.__module__.startswith("repro"):
                assert obj.__doc__, f"{name}.{symbol} (class) lacks a docstring"

    @pytest.mark.parametrize("name", _PACKAGES)
    def test_public_functions_documented(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            obj = getattr(module, symbol)
            if inspect.isfunction(obj) and obj.__module__.startswith("repro"):
                assert obj.__doc__, f"{name}.{symbol} (function) lacks a docstring"


class TestServingApiDocumented:
    """The serving layer is the repo's outward-facing API: every name in
    ``repro.serve.__all__`` must carry a docstring, and so must every
    public method those classes expose (downstream users discover the
    surface through ``help()`` / docs, not by reading the source)."""

    def test_every_export_documented(self):
        serve = importlib.import_module("repro.serve")
        undocumented = [
            symbol for symbol in serve.__all__
            if not inspect.getdoc(getattr(serve, symbol))
        ]
        assert not undocumented, f"undocumented serve exports: {undocumented}"

    def test_public_methods_documented(self):
        serve = importlib.import_module("repro.serve")
        missing = []
        for symbol in serve.__all__:
            obj = getattr(serve, symbol)
            if not inspect.isclass(obj):
                continue
            for mname, member in inspect.getmembers(obj):
                if mname.startswith("_"):
                    continue
                if not (inspect.isfunction(member) or inspect.iscoroutinefunction(member)):
                    continue
                if member.__module__ is None or not member.__module__.startswith("repro"):
                    continue
                if not inspect.getdoc(member):
                    missing.append(f"{symbol}.{mname}")
        assert not missing, f"undocumented serve methods: {missing}"

    def test_headline_entry_points_show_examples(self):
        """The docstring pass promises usage examples on the headline
        serving APIs — keep them from rotting away."""

        from repro.serve import (
            DecompressionService,
            ServiceConfig,
            SlabRing,
            StreamingCompressionService,
        )

        for obj in (ServiceConfig, StreamingCompressionService,
                    DecompressionService, SlabRing,
                    StreamingCompressionService.compress_stream_async):
            assert ">>>" in (inspect.getdoc(obj) or ""), (
                f"{getattr(obj, '__qualname__', obj)} lost its usage example"
            )
