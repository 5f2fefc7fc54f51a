import json

import pytest

from sebd.channels import NoiseModel
from sebd.lightcone import CompileError, build_lattice, compile_sebd, random_instance
from sebd.sampler import RunConfig, run_trajectory
from sebd.serialize import (
    TAU,
    TELEMETRY,
    UNRAVEL,
    SerializeError,
    Table,
    format_sample_record,
    load_circuit,
    parse_sample_record,
    read_csv,
    save_circuit,
    write_csv,
)

from one_lane import scan_bits


def small_circuit(seed=0):
    lat = build_lattice("square", 2, 3)
    noise = NoiseModel("dephasing", 0.1)
    return random_instance(lat, "ABC", "fsim", noise, seed)


class TestCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "t.csv"
        rows = [{"epsilon": 0.02, "L_x": 8, "status": "1.5"}, {"epsilon": 0.05, "L_x": 12, "status": "0.7"}]
        write_csv(p, TAU, rows)
        back = read_csv(p, TAU)
        assert [list(row) for row in back] == [["epsilon", "L_x", "status"]] * 2
        assert [list(row.values()) for row in back] == [["0.02", "8", "1.5"], ["0.05", "12", "0.7"]]

    def test_schema_line_first(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, Table("sebd.x.v1", {"a": ""}), [{"a": 1}])
        assert p.read_text().splitlines()[0] == "# schema=sebd.x.v1"

    def test_schema_mismatch_and_missing(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, Table("sebd.x.v1", {"a": ""}), [{"a": 1}])
        with pytest.raises(SerializeError, match="expected"):
            read_csv(p, Table("sebd.y.v1", {"a": ""}))
        q = tmp_path / "plain.csv"
        q.write_text("a,b\n1,2\n")
        with pytest.raises(SerializeError, match="schema"):
            read_csv(q, Table("sebd.x.v1", {"a": "", "b": ""}))

    def test_header_lists_the_columns_rows_hold_in_table_order(self, tmp_path):
        p = tmp_path / "t.csv"
        row = {"trunc_total": 1.5e-3, "ok": True, "trajectory": 0, "chi_max": 4, "seed": 7}
        write_csv(p, TELEMETRY, [row])
        assert p.read_text().splitlines()[1:] == [
            "trajectory,seed,ok,chi_max,trunc_total",
            "0,7,1,4,1.50000000e-03",
        ]
        write_csv(p, TELEMETRY, [{**row, "s_mid_max": 0.25}])
        assert p.read_text().splitlines()[1].endswith(",s_mid_max")
        write_csv(p, UNRAVEL, [{"channel": "k.json", "epsilon": None}])
        assert p.read_text().splitlines()[2] == "k.json,"

    def test_rows_that_differ_from_the_header_raise_before_writing(self, tmp_path):
        p = tmp_path / "t.csv"
        with pytest.raises(SerializeError, match="header"):
            write_csv(p, TAU, [{"epsilon": 0.1, "L_x": 4}, {"epsilon": 0.2}])
        with pytest.raises(SerializeError, match="no columns"):
            write_csv(p, TAU, [{"epsilon": 0.1, "chi": 4}])
        assert not p.exists()

    def test_read_refuses_unknown_columns_and_ragged_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("# schema=sebd.tau.v1\nepsilon,chi\n0.1,4\n")
        with pytest.raises(SerializeError, match="no columns"):
            read_csv(p, TAU)
        p.write_text("# schema=sebd.tau.v1\nepsilon,L_x\n0.1,4,5\n")
        with pytest.raises(SerializeError, match="length"):
            read_csv(p, TAU)


class TestSampleRecords:
    def test_round_trip_real_trajectory(self):
        cfg = RunConfig(compile_sebd(small_circuit(), "weak-optimal"), master_seed=9)
        rec = run_trajectory(cfg, 3)
        line = format_sample_record(rec)
        seed, groups, trunc, chi = parse_sample_record(line)
        assert seed == 3
        assert len(groups) == 3 and all(len(g) == 2 for g in groups)
        assert "".join(groups) == "".join(str(b) for b in scan_bits(rec))
        assert trunc == pytest.approx(rec.trunc_total, rel=1e-7, abs=1e-12)
        assert chi == rec.chi_max_seen

    def test_failed_record_rejected(self):
        cfg = RunConfig(compile_sebd(small_circuit(), "weak-optimal"))
        rec = run_trajectory(cfg, 0)
        broken = type(rec)(
            seed=rec.seed, z=rec.z, m=rec.m, failed="truncation overflow"
        )
        with pytest.raises(SerializeError, match="failed"):
            format_sample_record(broken)

    def test_malformed_lines(self):
        for bad in ("", "1 01", "x 01 10 0.0 4", "1 01 2a 0.0 4", "1 0.0 4"):
            with pytest.raises(SerializeError):
                parse_sample_record(bad)


class TestCircuitFiles:
    def test_round_trip(self, tmp_path):
        c = small_circuit(seed=5)
        p = tmp_path / "inst.json"
        save_circuit(p, c)
        back = load_circuit(p)
        assert back.schedule == c.schedule
        assert back.lattice.sites == c.lattice.sites
        assert back.noise.kind == "dephasing"
        assert back.noise.epsilon == 0.1
        for la, lb in zip(c.layers, back.layers):
            for (a1, b1, m1), (a2, b2, m2) in zip(la.gates, lb.gates):
                assert (a1, b1) == (a2, b2)
                assert m1 == pytest.approx(m2, abs=1e-15)

    def test_format_tag_enforced(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{}")
        with pytest.raises(SerializeError, match="sebd-circuit2d"):
            load_circuit(p)

    def test_non_unitary_gate_rejected_on_load(self, tmp_path):
        p = tmp_path / "inst.json"
        save_circuit(p, small_circuit(seed=5))
        rec = json.loads(p.read_text())
        rec["layers"][0]["gates"][0][2][0][0] = [2.0, 0.0]
        p.write_text(json.dumps(rec))
        with pytest.raises(CompileError, match="two-qubit gate is not unitary"):
            load_circuit(p)

    def test_bad_schedule_label_rejected_on_load(self, tmp_path):
        p = tmp_path / "inst.json"
        save_circuit(p, small_circuit(seed=5))
        rec = json.loads(p.read_text())
        rec["schedule"] = "ABX"
        p.write_text(json.dumps(rec))
        with pytest.raises(CompileError, match=r"schedule labels \['X'\]"):
            load_circuit(p)

    def test_deterministic_bytes(self, tmp_path):
        c = small_circuit(seed=5)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_circuit(a, c)
        save_circuit(b, c)
        assert a.read_bytes() == b.read_bytes()
