"""Tests for repro.analysis (replint): passes, suppressions, CLI, self-check.

Each pass gets fixture snippets — a known-bad file that must produce its
finding code and a known-good twin that must not.  Fixtures are written
into a miniature ``repro/...`` package tree under ``tmp_path`` so the
pass scoping (which keys off dotted module names) engages exactly as it
does on the real source tree.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    analyze_paths,
    load_config,
    module_name_for,
    registered_passes,
)
from repro.analysis.__main__ import main as replint_main

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def config():
    return load_config(REPO_ROOT / "pyproject.toml")


def write_module(tmp_path: Path, dotted: str, source: str) -> Path:
    """Write ``source`` as module ``dotted`` under a fixture package tree."""
    parts = dotted.split(".")
    directory = tmp_path
    for package in parts[:-1]:
        directory = directory / package
        directory.mkdir(exist_ok=True)
        init = directory / "__init__.py"
        if not init.exists():
            init.write_text("__all__: list[str] = []\n")
    path = directory / f"{parts[-1]}.py"
    path.write_text(source)
    return path


def codes_for(path: Path, config) -> list[str]:
    return [finding.code for finding in analyze_paths([path], config).findings]


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

class TestDeterminismPass:
    def test_global_random_module_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.core.bad",
            "__all__ = []\nimport random\n\n\ndef draw():\n"
            "    return random.random()\n",
        )
        assert "RPL101" in codes_for(bad, config)

    def test_global_numpy_random_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.core.bad",
            "__all__ = []\nimport numpy as np\n\n\ndef draw():\n"
            "    return np.random.rand(4)\n",
        )
        assert "RPL102" in codes_for(bad, config)

    def test_wall_clock_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.kernels.bad",
            "__all__ = []\nimport time\n\n\ndef stamp():\n"
            "    return time.time()\n",
        )
        assert "RPL103" in codes_for(bad, config)

    def test_os_urandom_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.sampling.bad",
            "__all__ = []\nimport os\n\n\ndef entropy():\n"
            "    return os.urandom(8)\n",
        )
        assert "RPL103" in codes_for(bad, config)

    def test_unseeded_constructor_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.sampling.bad",
            "__all__ = []\nimport random\n\n\ndef make():\n"
            "    return random.Random()\n",
        )
        assert "RPL104" in codes_for(bad, config)

    def test_seeded_constructors_clean(self, tmp_path, config):
        good = write_module(
            tmp_path,
            "repro.core.good",
            "__all__ = []\nimport random\nimport numpy as np\n\n\n"
            "def make(seed):\n"
            "    return random.Random(seed), np.random.default_rng(seed)\n",
        )
        assert codes_for(good, config) == []

    def test_out_of_scope_module_not_checked(self, tmp_path, config):
        script = tmp_path / "script.py"
        script.write_text("import random\n\n\ndef f():\n    return random.random()\n")
        assert codes_for(script, config) == []


# ----------------------------------------------------------------------
# spawn-safety
# ----------------------------------------------------------------------

class TestSpawnSafetyPass:
    def test_lambda_target_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.runtime.bad",
            "__all__ = []\nimport multiprocessing as mp\n\n\ndef go():\n"
            "    p = mp.Process(target=lambda: None)\n    p.start()\n",
        )
        assert "RPL201" in codes_for(bad, config)

    def test_bound_method_target_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.runtime.bad",
            "__all__ = []\nimport multiprocessing as mp\n\n\ndef go(engine):\n"
            "    mp.Process(target=engine.run).start()\n",
        )
        assert "RPL201" in codes_for(bad, config)

    def test_module_level_process_flagged_everywhere(self, tmp_path, config):
        # The __main__-guard check applies to plain scripts too.
        script = tmp_path / "script.py"
        script.write_text(
            "import multiprocessing as mp\n\nmp.Process(target=print).start()\n"
        )
        assert "RPL202" in codes_for(script, config)

    def test_guarded_process_clean(self, tmp_path, config):
        script = tmp_path / "script.py"
        script.write_text(
            "import multiprocessing as mp\n\n\ndef main():\n"
            "    mp.Process(target=print).start()\n\n\n"
            'if __name__ == "__main__":\n    main()\n'
        )
        assert codes_for(script, config) == []

    def test_rich_payload_field_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.runtime.bad",
            "__all__ = []\nfrom dataclasses import dataclass\n"
            "from repro.core.unknown_n import UnknownNQuantiles\n\n\n"
            "@dataclass\nclass WorkerSpec:\n"
            "    worker_id: int\n"
            "    estimator: UnknownNQuantiles\n",
        )
        assert "RPL203" in codes_for(bad, config)

    def test_plain_payload_clean(self, tmp_path, config):
        good = write_module(
            tmp_path,
            "repro.runtime.good",
            "__all__ = []\nfrom dataclasses import dataclass\n\n\n"
            "@dataclass\nclass WorkerSpec:\n"
            "    worker_id: int\n"
            "    seed: int\n"
            "    plan: dict\n"
            "    path: str | None = None\n",
        )
        assert codes_for(good, config) == []

    def test_inline_constructed_args_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.runtime.bad",
            "__all__ = []\nimport multiprocessing as mp\n\n\n"
            "def work(x):\n    return x\n\n\ndef go(make_engine):\n"
            "    mp.Process(target=work, args=(make_engine(),)).start()\n",
        )
        assert "RPL204" in codes_for(bad, config)


# ----------------------------------------------------------------------
# float-discipline
# ----------------------------------------------------------------------

class TestFloatDisciplinePass:
    def test_float_literal_equality_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.core.bad",
            "__all__ = []\n\n\ndef f(x):\n    return x == 0.5\n",
        )
        assert "RPL301" in codes_for(bad, config)

    def test_nan_self_comparison_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.stats.bad",
            "__all__ = []\n\n\ndef f(v):\n    if v != v:\n"
            "        raise ValueError\n    return v\n",
        )
        assert "RPL302" in codes_for(bad, config)

    def test_integer_equality_clean(self, tmp_path, config):
        good = write_module(
            tmp_path,
            "repro.core.good",
            "__all__ = []\n\n\ndef f(n):\n    return n == 0\n",
        )
        assert codes_for(good, config) == []

    def test_gate_usage_clean(self, tmp_path, config):
        good = write_module(
            tmp_path,
            "repro.core.good",
            "__all__ = []\nfrom repro.kernels import is_nan\n\n\n"
            "def f(v):\n    if is_nan(v):\n        raise ValueError\n"
            "    return v\n",
        )
        assert codes_for(good, config) == []


# ----------------------------------------------------------------------
# buffer-arena
# ----------------------------------------------------------------------

class TestBufferArenaPass:
    def test_boxed_list_storage_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.core.bad",
            "__all__ = []\nfrom dataclasses import dataclass\n\n\n"
            "@dataclass\nclass Slab:\n    values: list[float]\n",
        )
        assert "RPL501" in codes_for(bad, config)

    def test_tolist_on_data_plane_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.kernels.bad",
            "__all__ = []\n\n\ndef drain(view):\n    return view.tolist()\n",
        )
        assert "RPL502" in codes_for(bad, config)

    def test_loop_in_native_boundary_module_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.kernels.native_backend",
            "__all__ = []\n\n\ndef convert(values):\n"
            "    return [float(v) for v in values]\n",
        )
        assert "RPL503" in codes_for(bad, config)

    def test_for_loop_in_native_boundary_module_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.kernels.native_backend",
            "__all__ = []\n\n\ndef total(values):\n    acc = 0.0\n"
            "    for v in values:\n        acc += v\n    return acc\n",
        )
        assert "RPL503" in codes_for(bad, config)

    def test_loop_outside_native_boundary_clean(self, tmp_path, config):
        good = write_module(
            tmp_path,
            "repro.kernels.python_helpers",
            "__all__ = []\n\n\ndef total(values):\n    acc = 0.0\n"
            "    for v in values:\n        acc += v\n    return acc\n",
        )
        assert "RPL503" not in codes_for(good, config)

    def test_suppressed_loop_in_native_boundary_clean(self, tmp_path, config):
        good = write_module(
            tmp_path,
            "repro.kernels.native_backend",
            "__all__ = []\n\n\ndef convert(values):\n"
            "    # replint: disable=buffer-arena -- cold path: error "
            "formatting only\n"
            "    return [float(v) for v in values]\n",
        )
        assert "RPL503" not in codes_for(good, config)


# ----------------------------------------------------------------------
# api-hygiene
# ----------------------------------------------------------------------

class TestApiHygienePass:
    def test_missing_all_flagged(self, tmp_path, config):
        bad = write_module(tmp_path, "repro.core.bad", "VALUE = 1\n")
        assert "RPL401" in codes_for(bad, config)

    def test_upward_layer_import_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.core.bad",
            "__all__ = []\nfrom repro.runtime import run_pool_on_file\n",
        )
        assert "RPL402" in codes_for(bad, config)

    def test_downward_layer_import_clean(self, tmp_path, config):
        good = write_module(
            tmp_path,
            "repro.runtime.good",
            "__all__ = []\nfrom repro.core.params import plan_parameters\n",
        )
        assert codes_for(good, config) == []

    def test_private_cross_package_import_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.runtime.bad",
            "__all__ = []\nfrom repro.core.unknown_n import _secret\n",
        )
        assert "RPL403" in codes_for(bad, config)

    def test_private_module_exempt_from_all(self, tmp_path, config):
        private = write_module(tmp_path, "repro.core._internal", "VALUE = 1\n")
        assert codes_for(private, config) == []


# ----------------------------------------------------------------------
# service-hygiene
# ----------------------------------------------------------------------

class TestServiceHygienePass:
    def test_unbounded_network_await_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.service.bad",
            "__all__ = []\n\n\nasync def f(reader):\n"
            "    return await reader.readline()\n",
        )
        assert "RPL601" in codes_for(bad, config)

    def test_unbounded_queue_get_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.service.bad",
            "__all__ = []\n\n\nasync def f(queue):\n"
            "    return await queue.get()\n",
        )
        assert "RPL601" in codes_for(bad, config)

    def test_wait_for_wrapped_await_clean(self, tmp_path, config):
        good = write_module(
            tmp_path,
            "repro.service.good",
            "__all__ = []\nimport asyncio\n\n\nasync def f(reader):\n"
            "    return await asyncio.wait_for(reader.readline(), timeout=5.0)\n",
        )
        assert codes_for(good, config) == []

    def test_timeout_scope_bounds_awaits_inside(self, tmp_path, config):
        good = write_module(
            tmp_path,
            "repro.service.good",
            "__all__ = []\nimport asyncio\n\n\nasync def f(reader):\n"
            "    async with asyncio.timeout(5.0):\n"
            "        return await reader.readline()\n",
        )
        assert codes_for(good, config) == []

    def test_bare_except_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.service.bad",
            "__all__ = []\n\n\ndef f():\n    try:\n        return 1\n"
            "    except:\n        return 0\n",
        )
        assert "RPL602" in codes_for(bad, config)

    def test_silent_handler_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.service.bad",
            "__all__ = []\n\n\ndef f():\n    try:\n        return 1\n"
            "    except ValueError:\n        pass\n",
        )
        assert "RPL603" in codes_for(bad, config)

    def test_handler_that_responds_clean(self, tmp_path, config):
        good = write_module(
            tmp_path,
            "repro.service.good",
            "__all__ = []\n\n\ndef f(log):\n    try:\n        return 1\n"
            "    except ValueError as exc:\n        log(exc)\n        return 0\n",
        )
        assert codes_for(good, config) == []

    def test_pass_scoped_to_service_package(self, tmp_path, config):
        elsewhere = write_module(
            tmp_path,
            "repro.core.streamy",
            "__all__ = []\n\n\nasync def f(queue):\n"
            "    return await queue.get()\n",
        )
        assert "RPL601" not in codes_for(elsewhere, config)

    def test_raw_fork_outside_supervisor_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.service.sneaky",
            "__all__ = []\nimport os\n\n\ndef f():\n    return os.fork()\n",
        )
        assert "RPL604" in codes_for(bad, config)

    def test_raw_multiprocessing_process_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.service.sneaky",
            "__all__ = []\nimport multiprocessing\n\n\ndef f(work):\n"
            "    multiprocessing.Process(target=work).start()\n",
        )
        assert "RPL604" in codes_for(bad, config)

    def test_context_bound_process_flagged(self, tmp_path, config):
        # ctx.Process resolves to no importable dotted name, but still
        # creates a process the supervisor is not watching.
        bad = write_module(
            tmp_path,
            "repro.service.sneaky",
            "__all__ = []\nimport multiprocessing as mp\n\n\ndef f(work):\n"
            "    ctx = mp.get_context('spawn')\n"
            "    ctx.Process(target=work).start()\n",
        )
        assert "RPL604" in codes_for(bad, config)

    def test_subprocess_popen_flagged(self, tmp_path, config):
        bad = write_module(
            tmp_path,
            "repro.service.sneaky",
            "__all__ = []\nimport subprocess\n\n\ndef f():\n"
            "    subprocess.Popen(['sleep', '1'])\n",
        )
        assert "RPL604" in codes_for(bad, config)

    def test_supervisor_module_may_spawn(self, tmp_path, config):
        good = write_module(
            tmp_path,
            "repro.service.supervisor",
            "__all__ = []\nimport multiprocessing as mp\n\n\ndef f(work):\n"
            "    ctx = mp.get_context('spawn')\n"
            "    return ctx.Process(target=work)\n",
        )
        assert "RPL604" not in codes_for(good, config)

    def test_spawn_rule_scoped_to_service_package(self, tmp_path, config):
        # The runtime package has its own supervised pools; RPL604 only
        # polices the serving tier.
        elsewhere = write_module(
            tmp_path,
            "repro.runtime.pooly",
            "__all__ = []\nimport os\n\n\ndef f():\n    return os.fork()\n",
        )
        assert "RPL604" not in codes_for(elsewhere, config)


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------

class TestSuppressions:
    BAD_LINE = "    return random.random()"

    def _module(self, suffix: str) -> str:
        return f"__all__ = []\nimport random\n\n\ndef draw():\n{suffix}\n"

    def test_justified_suppression_silences(self, tmp_path, config):
        path = write_module(
            tmp_path,
            "repro.core.bad",
            self._module(
                self.BAD_LINE
                + "  # replint: disable=determinism -- fixture exercising escape"
            ),
        )
        report = analyze_paths([path], config)
        assert report.findings == ()
        assert report.suppressed == 1

    def test_unjustified_suppression_reported_and_ignored(self, tmp_path, config):
        path = write_module(
            tmp_path,
            "repro.core.bad",
            self._module(self.BAD_LINE + "  # replint: disable=determinism"),
        )
        codes = [finding.code for finding in analyze_paths([path], config).findings]
        # The original finding survives AND the bad suppression is reported.
        assert "RPL101" in codes
        assert "RPL001" in codes

    def test_unknown_pass_name_reported(self, tmp_path, config):
        path = write_module(
            tmp_path,
            "repro.core.bad",
            self._module(
                self.BAD_LINE + "  # replint: disable=no-such-pass -- why"
            ),
        )
        codes = [finding.code for finding in analyze_paths([path], config).findings]
        assert "RPL002" in codes
        assert "RPL101" in codes

    def test_standalone_comment_covers_next_line(self, tmp_path, config):
        path = write_module(
            tmp_path,
            "repro.core.bad",
            "__all__ = []\nimport random\n\n\ndef draw():\n"
            "    # replint: disable=determinism -- fixture: next-line form\n"
            f"{self.BAD_LINE}\n",
        )
        report = analyze_paths([path], config)
        assert report.findings == ()
        assert report.suppressed == 1

    def test_disable_all(self, tmp_path, config):
        path = write_module(
            tmp_path,
            "repro.core.bad",
            self._module(
                self.BAD_LINE + "  # replint: disable=all -- fixture: blanket"
            ),
        )
        assert analyze_paths([path], config).findings == ()

    def test_docstring_mention_is_not_a_suppression(self, tmp_path, config):
        path = write_module(
            tmp_path,
            "repro.core.good",
            '__all__ = []\n\n\ndef helper():\n    """Mentions\n'
            "    # replint: disable=determinism\n"
            '    inside a docstring only."""\n    return 1\n',
        )
        report = analyze_paths([path], config)
        assert report.findings == ()
        assert report.suppressed == 0


# ----------------------------------------------------------------------
# Report / JSON schema / CLI
# ----------------------------------------------------------------------

class TestReportAndCli:
    def test_json_schema(self, tmp_path, config, capsys):
        write_module(
            tmp_path,
            "repro.core.bad",
            "__all__ = []\nimport random\n\n\ndef f():\n"
            "    return random.random()\n",
        )
        exit_code = replint_main(
            ["--json", "--config", str(REPO_ROOT / "pyproject.toml"), str(tmp_path)]
        )
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == EXIT_FINDINGS
        assert payload["tool"] == "replint"
        assert payload["version"] == 2
        assert payload["files_checked"] >= 1
        assert set(payload["passes"]) == set(registered_passes())
        assert isinstance(payload["suppressed"], int)
        assert payload["baselined"] == 0
        assert payload["stale_baseline"] == []
        finding = payload["findings"][0]
        assert set(finding) == {
            "path", "line", "col", "code", "pass", "message", "severity",
        }
        assert finding["severity"] == "error"
        assert finding["code"] == "RPL101"
        assert finding["pass"] == "determinism"
        assert finding["line"] >= 1 and finding["col"] >= 1

    def test_human_output_and_exit_clean(self, tmp_path, config, capsys):
        write_module(tmp_path, "repro.core.good", "__all__ = []\n")
        exit_code = replint_main(
            ["--config", str(REPO_ROOT / "pyproject.toml"), str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert exit_code == EXIT_CLEAN
        assert "replint: clean" in out

    def test_findings_are_sorted_and_located(self, tmp_path, config):
        path = write_module(
            tmp_path,
            "repro.core.bad",
            "__all__ = []\nimport random\n\n\ndef f():\n"
            "    a = random.random()\n    b = random.Random()\n    return a, b\n",
        )
        findings = analyze_paths([path], config).findings
        lines = [finding.line for finding in findings]
        assert lines == sorted(lines)
        rendered = findings[0].render()
        assert rendered.startswith(findings[0].path)
        assert f":{findings[0].line}:" in rendered

    def test_unknown_select_is_usage_error(self, capsys):
        assert replint_main(["--select", "no-such-pass", "src"]) == EXIT_ERROR

    def test_missing_path_is_usage_error(self, capsys):
        assert replint_main(["definitely/not/a/path"]) == EXIT_ERROR

    def test_select_restricts_passes(self, tmp_path, config):
        path = write_module(
            tmp_path,
            "repro.core.bad",
            "import random\n\n\ndef f():\n    return random.random()\n",
        )
        report = analyze_paths([path], config, select=["api-hygiene"])
        assert [finding.code for finding in report.findings] == ["RPL401"]

    def test_main_cli_analyze_subcommand(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main

        write_module(tmp_path, "repro.core.good", "__all__ = []\n")
        exit_code = repro_main(
            ["analyze", "--config", str(REPO_ROOT / "pyproject.toml"), str(tmp_path)]
        )
        assert exit_code == EXIT_CLEAN
        assert "replint: clean" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Module naming
# ----------------------------------------------------------------------

class TestModuleNaming:
    def test_src_layout_mapping(self):
        path = REPO_ROOT / "src" / "repro" / "core" / "buffers.py"
        assert module_name_for(path) == "repro.core.buffers"

    def test_package_init_mapping(self):
        path = REPO_ROOT / "src" / "repro" / "core" / "__init__.py"
        assert module_name_for(path) == "repro.core"

    def test_loose_script_has_no_module(self, tmp_path):
        script = tmp_path / "script.py"
        script.write_text("x = 1\n")
        assert module_name_for(script) is None


# ----------------------------------------------------------------------
# Self-check: the gate holds on this repository
# ----------------------------------------------------------------------

class TestSelfCheck:
    def test_replint_clean_on_own_source(self, config):
        report = analyze_paths([REPO_ROOT / "src" / "repro"], config)
        assert report.findings == (), "\n" + "\n".join(
            finding.render() for finding in report.findings
        )
        assert report.exit_code == EXIT_CLEAN

    def test_replint_clean_on_tests_benchmarks_examples(self, config):
        paths = [
            REPO_ROOT / "tests",
            REPO_ROOT / "benchmarks",
            REPO_ROOT / "examples",
        ]
        report = analyze_paths(paths, config)
        assert report.findings == (), "\n" + "\n".join(
            finding.render() for finding in report.findings
        )
