"""Tests for the command-line interface."""

import os
import sys

import pytest

from repro.cli import main
from repro.hardware import ibm_q20_tokyo
from repro.qasm import parse_qasm_file
from repro.verify import is_hardware_compliant

QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[5];
creg c[5];
h q[0];
cx q[0], q[4];
cx q[1], q[3];
ccx q[0], q[2], q[4];
measure q -> c;
"""


@pytest.fixture
def qasm_file(tmp_path):
    path = tmp_path / "input.qasm"
    path.write_text(QASM)
    return str(path)


class TestMapCommand:
    def test_map_to_file(self, qasm_file, tmp_path, capsys):
        out = str(tmp_path / "mapped.qasm")
        code = main(["map", qasm_file, "-o", out, "--trials", "2"])
        assert code == 0
        assert os.path.exists(out)
        mapped = parse_qasm_file(out)
        assert is_hardware_compliant(mapped, ibm_q20_tokyo())

    def test_map_to_stdout(self, qasm_file, capsys):
        code = main(["map", qasm_file, "--trials", "1"])
        assert code == 0
        captured = capsys.readouterr()
        assert "OPENQASM 2.0;" in captured.out
        assert "circuit" in captured.err  # summary on stderr

    def test_map_keep_swaps(self, qasm_file, capsys):
        code = main(["map", qasm_file, "--trials", "1", "--keep-swaps"])
        assert code == 0

    def test_map_with_optimize(self, qasm_file, capsys):
        code = main(["map", qasm_file, "--trials", "1", "--optimize"])
        assert code == 0
        assert "post-optimize" in capsys.readouterr().err

    def test_map_heuristic_flags(self, qasm_file, capsys):
        code = main(
            [
                "map",
                qasm_file,
                "--trials",
                "1",
                "--heuristic",
                "lookahead",
                "--delta",
                "0.01",
                "--extended-set",
                "10",
                "--weight",
                "0.3",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("scorer", ["auto", "fast"])
    def test_map_retired_scorer_names_rejected(self, qasm_file, scorer):
        """``--scorer`` is retired: any value is a usage error."""
        with pytest.raises(SystemExit) as exc:
            main(["map", qasm_file, "--scorer", scorer])
        assert exc.value.code == 2

    def test_map_executors_match_direct_search(
        self, qasm_file, tmp_path, capsys
    ):
        """Every --executor routes the same program as the direct
        in-process search for the same seed pool."""
        outputs = {}
        for executor in ("auto", "serial", "parallel"):
            out = str(tmp_path / f"{executor}.qasm")
            code = main(
                [
                    "map",
                    qasm_file,
                    "--trials",
                    "3",
                    "--jobs",
                    "1" if executor == "auto" else "2",
                    "--executor",
                    executor,
                    "-o",
                    out,
                ]
            )
            assert code == 0
            with open(out) as handle:
                outputs[executor] = handle.read()
        assert outputs["serial"] == outputs["auto"]
        assert outputs["parallel"] == outputs["auto"]

    def test_map_verbose_reports_shards(self, qasm_file, capsys):
        code = main(
            [
                "map",
                qasm_file,
                "--trials",
                "16",
                "--jobs",
                "2",
                "--executor",
                "parallel",
                "--verbose",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "executor     : parallel, shards 8+8 across 2 workers" in err

    @pytest.mark.parametrize(
        "executor", ["process", "ensemble", "hybrid", "engine-auto"]
    )
    def test_map_retired_executor_names_rejected(
        self, qasm_file, capsys, executor
    ):
        with pytest.raises(SystemExit) as exc:
            main(["map", qasm_file, "--executor", executor])
        assert exc.value.code == 2
        errors = [
            line
            for line in capsys.readouterr().err.splitlines()
            if "error:" in line
        ]
        assert len(errors) == 1
        assert "invalid choice" in errors[0]
        for name in ("auto", "serial", "parallel"):
            assert repr(name) in errors[0]

    @pytest.mark.parametrize("preset", ["ensemble", "hybrid"])
    def test_map_retired_executor_presets_rejected(
        self, qasm_file, capsys, preset
    ):
        with pytest.raises(SystemExit) as exc:
            main(["map", qasm_file, "--pipeline", preset])
        assert exc.value.code == 2
        errors = [
            line
            for line in capsys.readouterr().err.splitlines()
            if "error:" in line
        ]
        assert len(errors) == 1
        assert "invalid choice" in errors[0]
        assert "'paper_default'" in errors[0]

    def test_map_bare_noise_aware_preset(self, qasm_file, capsys):
        # The preset must be usable without the --noise-aware flag: the
        # CLI supplies the chip-average model whenever the resolved
        # pipeline contains the noise-aware pass.
        code = main(
            ["map", qasm_file, "--pipeline", "noise_aware", "--trials", "1"]
        )
        assert code == 0

    def test_map_pipeline_flags_and_verbose(self, qasm_file, tmp_path, capsys):
        out = str(tmp_path / "mapped.qasm")
        code = main(
            [
                "map",
                qasm_file,
                "--device",
                "ibm_qx5",
                "--pipeline",
                "directed_device",
                "--bridge",
                "--trials",
                "1",
                "--verbose",
                "-o",
                out,
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "pass timings:" in err
        assert "BridgeRewrite" in err
        from repro.hardware.devices import ibm_qx5

        mapped = parse_qasm_file(out)
        assert is_hardware_compliant(mapped, ibm_qx5(), check_direction=True)

    def test_map_noise_profile(self, qasm_file, tmp_path, capsys):
        profile = tmp_path / "noise.json"
        profile.write_text(
            '{"two_qubit_error": 0.03, "edge_errors": {"0,1": 0.2, "5,6": 0.1}}'
        )
        code = main(
            [
                "map",
                qasm_file,
                "--noise-aware",
                "--noise-profile",
                str(profile),
                "--trials",
                "1",
            ]
        )
        assert code == 0

    def test_unknown_pipeline_rejected(self, qasm_file):
        with pytest.raises(SystemExit):
            main(["map", qasm_file, "--pipeline", "bogus"])

    def test_unknown_device_rejected(self, qasm_file):
        with pytest.raises(SystemExit):
            main(["map", qasm_file, "--device", "ibm_q1000"])


class TestOtherCommands:
    def test_devices_listing(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "ibm_q20_tokyo" in out
        assert "symmetric" in out
        assert "directed" in out

    def test_draw_circuit(self, qasm_file, capsys):
        assert main(["draw", qasm_file]) == 0
        out = capsys.readouterr().out
        assert "q0" in out and "●" in out

    def test_draw_device(self, capsys):
        assert main(["draw", "--device", "ibm_qx2"]) == 0
        assert "ibm_qx2" in capsys.readouterr().out

    def test_draw_without_input_fails(self, capsys):
        assert main(["draw"]) == 2

    def test_forwarded_scaling_command(self, capsys):
        code = main(
            [
                "scaling",
                "--family",
                "qft",
                "--sizes",
                "4",
                "--bka-max-nodes",
                "20000",
            ]
        )
        assert code == 0
        assert "Scalability" in capsys.readouterr().out

    def test_forwarded_fig8_command(self, capsys):
        code = main(
            ["fig8", "--names", "qft_10", "--deltas", "0.0", "--trials", "1"]
        )
        assert code == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_no_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestBadInput:
    """Bad input fails with one ``repro <cmd>: error:`` line on stderr
    and exit status 2 (argparse's own input-error status), never with
    a traceback."""

    @staticmethod
    def _assert_clean_error(capsys, code, command, fragment):
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith(f"repro {command}: error: ")
        assert fragment in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["map", "draw"])
    def test_malformed_qasm(self, command, tmp_path, capsys):
        path = tmp_path / "bad.qasm"
        path.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncx q[0], q[5];\n'
        )
        code = main([command, str(path)])
        self._assert_clean_error(
            capsys, code, command, "index 5 out of range for qreg q[2]"
        )

    @pytest.mark.parametrize("command", ["map", "draw"])
    def test_missing_input_file(self, command, tmp_path, capsys):
        missing = str(tmp_path / "nowhere.qasm")
        code = main([command, missing])
        self._assert_clean_error(capsys, code, command, "nowhere.qasm")

    def test_circuit_wider_than_device(self, tmp_path, capsys):
        path = tmp_path / "wide.qasm"
        body = "".join(f"cx q[{i}], q[{i + 1}];\n" for i in range(24))
        path.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[25];\n' + body
        )
        code = main(["map", str(path), "--device", "ibm_q20_tokyo"])
        self._assert_clean_error(capsys, code, "map", "25")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_delta(self, qasm_file, capsys, value):
        code = main(["map", qasm_file, "--trials", "1", f"--delta={value}"])
        self._assert_clean_error(capsys, code, "map", "decay_delta")


class TestDevicesCommand:
    def test_listing_columns(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        # name, qubits, couplings, diameter, directedness — per device.
        assert "ibm_q20_tokyo" in out and "symmetric" in out
        assert "ibm_qx5" in out and "directed" in out
        assert "43 couplings" in out  # Tokyo's edge count

    def test_json_matches_service_catalog(self, capsys):
        import json

        from repro.hardware.devices import device_catalog

        assert main(["devices", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == device_catalog()


class TestServeAndSubmit:
    """`repro submit` against an in-process service instance."""

    @pytest.fixture()
    def running_service(self, tmp_path):
        from repro.service import (
            ResultStore,
            build_server,
            serve_url,
            shutdown_service,
            start_in_thread,
        )

        store = ResultStore(root=str(tmp_path / "store"))
        server = build_server(port=0, store=store, workers=1)
        start_in_thread(server)
        try:
            yield serve_url(server), store
        finally:
            shutdown_service(server)

    def test_submit_writes_compliant_output(
        self, qasm_file, tmp_path, running_service, capsys
    ):
        url, _ = running_service
        out = str(tmp_path / "routed.qasm")
        code = main(
            ["submit", qasm_file, "--url", url, "--trials", "2", "-o", out]
        )
        assert code == 0
        routed = parse_qasm_file(out)
        assert is_hardware_compliant(routed, ibm_q20_tokyo())
        assert "[compiled]" in capsys.readouterr().err

    def test_resubmit_hits_the_store(
        self, qasm_file, running_service, capsys
    ):
        url, store = running_service
        assert main(["submit", qasm_file, "--url", url, "--trials", "2"]) == 0
        capsys.readouterr()
        assert main(["submit", qasm_file, "--url", url, "--trials", "2"]) == 0
        captured = capsys.readouterr()
        assert "[store]" in captured.err
        assert "OPENQASM 2.0;" in captured.out
        assert store.stats()["hits"] >= 1

    def test_submit_against_dead_server_fails_cleanly(
        self, qasm_file, capsys
    ):
        from repro.service.client import find_free_port

        url = f"http://127.0.0.1:{find_free_port()}"
        code = main(
            ["submit", qasm_file, "--url", url, "--timeout", "2"]
        )
        assert code == 1
        assert "submit failed" in capsys.readouterr().err


def _descendants(pid):
    """Live descendant PIDs of ``pid``, from ``/proc`` (Linux only)."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = set(), {pid}
    while frontier:
        frontier = {c for c, p in parents.items() if p in frontier} - found
        found |= frontier
    return {p for p in found if _alive(p)}


def _alive(pid):
    """True while ``pid`` runs (an unreaped zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc"
)
def test_serve_sigterm_stops_process_workers(tmp_path):
    """SIGTERM drains a ``--execution process`` server like Ctrl-C: the
    server exits and none of its worker processes outlive it."""
    import signal
    import subprocess
    import time

    from repro.service.client import ServiceClient, find_free_port

    port = find_free_port()
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port), "--workers", "2",
            "--execution", "process",
            "--store-dir", str(tmp_path / "store"),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    children = set()
    try:
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=60)
        client.wait_until_healthy(timeout=30)
        qasm = (
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
            "cx q[0],q[1];\ncx q[1],q[2];\ncx q[0],q[2];\n"
        )
        assert client.compile(qasm)["state"] == "done"
        children = _descendants(process.pid)
        assert children, "the process tier should have started a worker"
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and any(map(_alive, children)):
            time.sleep(0.05)
        survivors = [pid for pid in children if _alive(pid)]
        assert survivors == []
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
        for pid in children:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
