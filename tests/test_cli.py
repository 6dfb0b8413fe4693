import json
import warnings

import pytest

from arrowhead.cli import main, parse_graph_arg
from arrowhead.errors import PreconditionError
from arrowhead.graphs import complete, cycle, emit_graph6, matching, parse_graph6, path, star

ENVELOPE_KEYS = {"command", "inputs", "result", "elapsed_ms"}


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    envelope = json.loads(captured.out) if captured.out.strip() else None
    return code, envelope, captured.err


# ---------------------------------------------------------------------------
# graph argument parsing

def test_symbolic_graph_names():
    assert parse_graph_arg("K5") == complete(5)
    assert parse_graph_arg("P4") == path(4)
    assert parse_graph_arg("P_4") == path(4)
    assert parse_graph_arg("C5") == cycle(5)
    assert parse_graph_arg("S3") == star(3)
    assert parse_graph_arg("2K2") == matching(2)
    assert parse_graph_arg("2K_2") == matching(2)
    assert parse_graph_arg("K62") == complete(62)
    assert parse_graph_arg("2K31").n == 62
    # an order past graph6's cap is refused before anything is built
    for name in ("K63", "S62", "3K21", "K100000000"):
        with pytest.raises(PreconditionError, match="above the cap of 62"):
            parse_graph_arg(name)


def test_symbolic_rejects_impossible_cycle():
    with pytest.raises(PreconditionError, match="C2"):
        parse_graph_arg("C2")
    with pytest.raises(PreconditionError, match="bad copy count"):
        parse_graph_arg("0K2")


def test_graph_arg_file_and_literal(tmp_path):
    f = tmp_path / "host.g6"
    f.write_text("\nBw\n")
    assert parse_graph_arg(str(f)) == parse_graph6("Bw")
    assert parse_graph_arg("Bw") == parse_graph6("Bw")
    empty = tmp_path / "empty.g6"
    empty.write_text("\n")
    with pytest.raises(PreconditionError, match="empty"):
        parse_graph_arg(str(empty))


def test_graph_literal_longer_than_a_file_name():
    # order 60's graph6 line is 296 bytes, past the usual 255-byte name limit
    assert parse_graph_arg(emit_graph6(path(60))) == path(60)


def test_unreadable_graph_file_is_exit_1(capsys, tmp_path):
    f = tmp_path / "host.g6"
    f.write_bytes(b"B\xff\n")
    code, env, err = run_cli(capsys, ["arrows", "--f", str(f), "--g", "K2", "--h", "K2"])
    assert code == 1
    assert env is None
    assert "error: cannot read graph file" in err


# ---------------------------------------------------------------------------
# the envelope

VALID = {"n": 3, "red": [[0, 1]], "blue": [[0, 2], [1, 2]]}
ALL_RED = {"n": 3, "red": [[0, 1], [0, 2], [1, 2]], "blue": []}


@pytest.mark.parametrize(
    "argv, inputs, exit_code",
    [
        (["arrows", "--f", "K6", "--g", "K3", "--h", "K3"], {"f": "K6", "g": "K3", "h": "K3"}, 0),
        (["arrows", "--f", "K5", "--g", "K3", "--h", "K3"], {"f": "K5", "g": "K3", "h": "K3"}, 10),
        (["bounds", "--g", "P4", "--h", "K3", "--ramsey-budget", "5"], {"g": "P4", "h": "K3"}, 0),
        (
            ["construct", "--method", "t1", "--f", "K5", "--alpha", "2", "--omega", "3"],
            {"f": "K5", "alpha": 2, "omega": 3, "method": "t1"},
            0,
        ),
        (
            ["construct", "--h", "K3", "--method", "ch", "--g", "P3"],
            {"g": "P3", "h": "K3", "method": "ch"},
            0,
        ),
        (
            ["verify", "--f", "K3", "--coloring", "valid.json", "--g", "K3", "--h", "K3"],
            {"f": "K3", "coloring": "valid.json", "g": "K3", "h": "K3"},
            0,
        ),
        (
            ["verify", "--f", "K3", "--coloring", "all-red.json", "--g", "K3", "--h", "K3"],
            {"f": "K3", "coloring": "all-red.json", "g": "K3", "h": "K3"},
            11,
        ),
        (["ir", "--g", "2K2", "--h", "K2", "--n-max", "4", "--no-cache"], {"g": "2K2", "h": "K2", "n_max": 4}, 0),
        (["ir", "--no-cache", "--g", "K3", "--h", "K3", "--n-max", "5"], {"g": "K3", "h": "K3", "n_max": 5}, 10),
        (["ramsey", "--g", "K3", "--h", "K3", "--n-max", "7"], {"g": "K3", "h": "K3", "n_max": 7}, 0),
        (["ramsey", "--n-max", "5", "--g", "K3", "--h", "K3"], {"g": "K3", "h": "K3", "n_max": 5}, 10),
    ],
    ids=[
        "arrows-0", "arrows-10", "bounds-0", "construct-t1-0", "construct-ch-0",
        "verify-0", "verify-11", "ir-0", "ir-10", "ramsey-0", "ramsey-10",
    ],
)
def test_every_command_echoes_its_inputs_in_one_envelope(capsys, tmp_path, monkeypatch, argv, inputs, exit_code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "valid.json").write_text(json.dumps(VALID))
    (tmp_path / "all-red.json").write_text(json.dumps(ALL_RED))
    code, env, err = run_cli(capsys, argv)
    assert (code, err) == (exit_code, "")
    assert list(env) == ["command", "inputs", "result", "elapsed_ms"]
    assert env["command"] == argv[0]
    # the echo keeps its key order, and leaves out arguments not given
    assert list(env["inputs"].items()) == list(inputs.items())


# ---------------------------------------------------------------------------
# arrows

def test_arrows_positive(capsys):
    code, env, _ = run_cli(capsys, ["arrows", "--f", "K6", "--g", "K3", "--h", "K3"])
    assert code == 0
    assert set(env) == ENVELOPE_KEYS
    assert env["command"] == "arrows"
    assert env["inputs"] == {"f": "K6", "g": "K3", "h": "K3"}
    assert env["result"]["arrows"] is True
    assert env["result"]["witness"] is None
    stats = env["result"]["stats"]
    assert stats["colorings_explored"] >= 0 and stats["prunes"] >= 0


def test_arrows_negative_writes_witness(capsys, tmp_path):
    out = tmp_path / "witness.json"
    code, env, _ = run_cli(
        capsys, ["arrows", "--f", "K5", "--g", "K3", "--h", "K3", "--out", str(out)]
    )
    assert code == 10
    assert env["result"]["arrows"] is False
    witness = env["result"]["witness"]
    assert witness is not None
    assert json.loads(out.read_text()) == witness


def test_arrows_positive_writes_null(capsys, tmp_path):
    # K6 => (K3, K3): the envelope's witness is null, and so is the file
    out = tmp_path / "witness.json"
    code, env, _ = run_cli(
        capsys, ["arrows", "--f", "K6", "--g", "K3", "--h", "K3", "--out", str(out)]
    )
    assert code == 0
    assert env["result"]["arrows"] is True
    assert out.read_text() == "null\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["arrows", "--f", "K5", "--g", "K3", "--h", "K3"],
        pytest.param(["arrows", "--f", "K6", "--g", "K3", "--h", "K3"], id="arrows-positive"),
        ["ir", "--g", "2K2", "--h", "K2", "--n-max", "4", "--no-cache"],
        pytest.param(["ir", "--g", "P4", "--h", "K3", "--n-max", "5", "--no-cache"], id="ir-not-found"),
        ["construct", "--method", "t1", "--f", "K5", "--alpha", "2", "--omega", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_is_exit_1(capsys, tmp_path, argv):
    out = tmp_path / "missing" / "x.json"
    code, env, err = run_cli(capsys, argv + ["--out", str(out)])
    assert (code, env) == (1, None)
    assert f"error: cannot write {out}" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["ir", "--g", "2K2", "--h", "K2", "--n-max", "4", "--no-cache"], 0),
        (["ir", "--g", "P4", "--h", "K3", "--n-max", "5", "--no-cache"], 10),
    ],
    ids=["found", "not-found"],
)
def test_ir_out_is_the_result(capsys, tmp_path, argv, code):
    out = tmp_path / "ir.json"
    got, env, _ = run_cli(capsys, argv + ["--out", str(out)])
    assert got == code
    assert json.loads(out.read_text()) == env["result"]


def test_arrows_witness_round_trips_through_verify(capsys, tmp_path):
    out = tmp_path / "witness.json"
    run_cli(capsys, ["arrows", "--f", "K5", "--g", "K3", "--h", "K3", "--out", str(out)])
    code, env, _ = run_cli(
        capsys, ["verify", "--f", "K5", "--coloring", str(out), "--g", "K3", "--h", "K3"]
    )
    assert code == 0
    assert env["result"] == {"valid": True, "violation": None}


# ---------------------------------------------------------------------------
# verify

def test_verify_flags_bad_coloring(capsys, tmp_path):
    bad = tmp_path / "allred.json"
    bad.write_text(json.dumps({"n": 3, "red": [[0, 1], [0, 2], [1, 2]], "blue": []}))
    code, env, _ = run_cli(
        capsys, ["verify", "--f", "K3", "--coloring", str(bad), "--g", "K3", "--h", "K3"]
    )
    assert code == 11
    assert env["result"]["valid"] is False
    assert env["result"]["violation"] == {"color": "red", "vertices": [0, 1, 2]}


def test_verify_rejects_malformed_json(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{oops")
    code, env, err = run_cli(
        capsys, ["verify", "--f", "K3", "--coloring", str(bad), "--g", "K3", "--h", "K3"]
    )
    assert code == 1
    assert env is None
    assert "error:" in err and "JSON" in err


@pytest.mark.parametrize(
    "content", [None, b'{"n": 3, "red": [], "blue": []}\xff'], ids=["missing", "not-utf8"]
)
def test_verify_rejects_unreadable_coloring_file(capsys, tmp_path, content):
    # a missing file, and one that is not UTF-8
    coloring = tmp_path / "coloring.json"
    if content is not None:
        coloring.write_bytes(content)
    code, env, err = run_cli(
        capsys, ["verify", "--f", "K3", "--coloring", str(coloring), "--g", "K3", "--h", "K3"]
    )
    assert code == 1
    assert env is None
    assert "error: coloring file" in err and "is not readable JSON" in err


def test_verify_refuses_a_declared_order_past_the_host(capsys, tmp_path):
    # refused before one row per declared vertex is built
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": 10**12, "red": [], "blue": []}))
    code, env, err = run_cli(
        capsys, ["verify", "--f", "K3", "--coloring", str(huge), "--g", "K2", "--h", "K2"]
    )
    assert (code, env) == (1, None)
    assert err == f"error: coloring is for order {10**12}, host has order 3\n"


def test_verify_rejects_wrong_host_coloring(capsys, tmp_path):
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"n": 3, "red": [[0, 1]], "blue": []}))
    code, _, err = run_cli(
        capsys, ["verify", "--f", "K3", "--coloring", str(partial), "--g", "K3", "--h", "K3"]
    )
    assert code == 1
    assert "uncolored" in err


# ---------------------------------------------------------------------------
# construct

def test_construct_clique_blocks(capsys):
    code, env, _ = run_cli(capsys, ["construct", "--method", "ch", "--g", "P3", "--h", "K3"])
    assert code == 0
    res = env["result"]
    assert res["certified"] is True
    assert res["method"] == "CH"
    assert res["host"] == "C~"
    assert res["coloring"]["red"] == [[0, 1], [2, 3]]
    assert res["trace"]["method"] == "CH"
    assert all(set(s) == {"role", "vertices"} for s in res["trace"]["steps"])


def test_construct_extraction(capsys, tmp_path):
    out = tmp_path / "coloring.json"
    code, env, _ = run_cli(
        capsys,
        ["construct", "--method", "t1", "--f", "K5", "--alpha", "2", "--omega", "3", "--out", str(out)],
    )
    assert code == 0
    assert env["result"]["method"] == "T1"
    assert json.loads(out.read_text()) == env["result"]["coloring"]


def test_construct_two_clique(capsys):
    code, env, _ = run_cli(capsys, ["construct", "--method", "l2", "--f", "C5", "--omega", "3"])
    assert code == 0
    assert env["result"]["method"] == "L2"
    assert env["result"]["coloring"]["red"] == []


def test_construct_missing_flags(capsys):
    code, env, err = run_cli(capsys, ["construct", "--method", "t1", "--f", "K5"])
    assert code == 1
    assert "alpha" in err
    code, _, err = run_cli(capsys, ["construct", "--method", "ch", "--g", "P3"])
    assert code == 1
    assert "--h" in err
    code, _, err = run_cli(capsys, ["construct", "--method", "t1", "--alpha", "2", "--omega", "3"])
    assert code == 1
    assert "method t1 needs --f" in err


def test_construct_size_guard_maps_to_error_exit(capsys):
    code, env, err = run_cli(
        capsys, ["construct", "--method", "t1", "--f", "K9", "--alpha", "2", "--omega", "3"]
    )
    assert code == 1
    assert env is None
    assert "too large" in err


# ---------------------------------------------------------------------------
# ir and ramsey

def test_ir_matching_pair(capsys):
    code, env, _ = run_cli(capsys, ["ir", "--g", "2K2", "--h", "K2", "--n-max", "4", "--no-cache"])
    assert code == 0
    assert env["result"] == {
        "g": "C`",
        "h": "A_",
        "ir": 4,
        "witness": "C`",
        "checked_orders": [1, 2, 3, 4],
    }


def test_ir_not_found_is_exit_10(capsys):
    code, env, _ = run_cli(capsys, ["ir", "--g", "K3", "--h", "K3", "--n-max", "5", "--no-cache"])
    assert code == 10
    assert env["result"] == {"g": "Bw", "h": "Bw", "ir": None, "n_max": 5}


def test_ir_writes_default_cache_in_cwd(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ARROWHEAD_CACHE", raising=False)
    code, _, _ = run_cli(capsys, ["ir", "--g", "K2", "--h", "K2", "--n-max", "2"])
    assert code == 0
    assert (tmp_path / "ir-cache.json").is_file()


def test_ir_cache_env_override(capsys, tmp_path, monkeypatch):
    target = tmp_path / "elsewhere" / "memo.json"
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ARROWHEAD_CACHE", str(target))
    code, _, _ = run_cli(capsys, ["ir", "--g", "K2", "--h", "K2", "--n-max", "2"])
    assert code == 0
    assert target.is_file()
    assert not (tmp_path / "ir-cache.json").exists()


def test_ir_cache_flag_beats_env(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ARROWHEAD_CACHE", str(tmp_path / "ignored.json"))
    code, _, _ = run_cli(
        capsys, ["ir", "--g", "K2", "--h", "K2", "--n-max", "2", "--cache", str(tmp_path / "explicit.json")]
    )
    assert code == 0
    assert (tmp_path / "explicit.json").is_file()
    assert not (tmp_path / "ignored.json").exists()


def test_ir_calls_in_one_process_keep_their_own_caches(capsys, tmp_path, monkeypatch):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    monkeypatch.setenv("ARROWHEAD_CACHE", str(first))
    code, env, _ = run_cli(capsys, ["ir", "--g", "2K2", "--h", "K2", "--n-max", "4"])
    assert (code, env["result"]["ir"], env["result"]["witness"]) == (0, 4, "C`")
    written = first.read_bytes()

    monkeypatch.setenv("ARROWHEAD_CACHE", str(second))
    with pytest.raises(SystemExit) as exc:
        main(["ir", "--g", "P3", "--h", "K2", "--n-max", "three"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert not second.exists()

    code, env, _ = run_cli(capsys, ["ir", "--g", "P3", "--h", "K2", "--n-max", "4"])
    assert code == 0
    assert env["inputs"] == {"g": "P3", "h": "K2", "n_max": 4}
    assert (env["result"]["g"], env["result"]["ir"]) == ("Bg", 3)
    assert first.read_bytes() == written

    def keys(log):
        return [key for line in log.splitlines() for key in json.loads(line)]

    assert keys(written) and all(key.endswith("|C`|A_") for key in keys(written))
    assert keys(second.read_bytes()) and all(key.endswith("|Bg|A_") for key in keys(second.read_bytes()))


def test_unwritable_cache_gives_the_cacheless_answer(capsys, tmp_path):
    argv = ["ir", "--g", "P4", "--h", "P3", "--n-max", "7"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, env, _ = run_cli(capsys, argv + ["--cache", str(tmp_path)])
    messages = [str(w.message).split(" result cache ")[0] for w in caught]
    assert messages == ["ignoring unreadable", "not writing"]
    bare_code, bare, _ = run_cli(capsys, argv + ["--no-cache"])
    assert (code, env["result"]) == (bare_code, bare["result"])
    assert (code, env["result"]["ir"], env["result"]["witness"]) == (0, 7, "Fh_gG")


def test_unreadable_catalog_file_is_exit_1(capsys, tmp_path):
    (tmp_path / "n1.g6").write_text("@\n")
    (tmp_path / "n2.g6").write_bytes(b"A_\n\xff\n")
    code, env, err = run_cli(
        capsys,
        ["ir", "--g", "K2", "--h", "K2", "--catalog", str(tmp_path), "--n-max", "2", "--no-cache"],
    )
    assert code == 1
    assert env is None
    assert "error: cannot read" in err and "n2.g6" in err


def test_no_cache_runs_are_deterministic(capsys):
    def once():
        _, env, _ = run_cli(
            capsys, ["ir", "--g", "P3", "--h", "K2", "--n-max", "3", "--no-cache"]
        )
        env.pop("elapsed_ms")
        return env

    assert once() == once()


def test_ramsey_values(capsys):
    code, env, _ = run_cli(capsys, ["ramsey", "--g", "K3", "--h", "K3", "--n-max", "7"])
    assert code == 0
    assert env["result"]["ramsey"] == 6
    code, env, _ = run_cli(capsys, ["ramsey", "--g", "K3", "--h", "K3", "--n-max", "5"])
    assert code == 10
    assert env["result"]["ramsey"] is None


def test_bounds_command(capsys):
    code, env, _ = run_cli(capsys, ["bounds", "--g", "P4", "--h", "K3"])
    assert code == 0
    assert env["result"]["best"] == 7
    names = [b["name"] for b in env["result"]["bounds"]]
    assert names == ["order", "R", "CH", "T1", "T3"]


# ---------------------------------------------------------------------------
# error mapping

def test_bad_graph6_is_exit_1_with_offset(capsys):
    code, env, err = run_cli(capsys, ["arrows", "--f", "D@", "--g", "K2", "--h", "K2"])
    assert code == 1
    assert env is None
    assert "error: graph6 parse error at byte" in err


def test_unknown_subcommand_is_argparse_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_edgeless_pattern_is_exit_1(capsys):
    code, _, err = run_cli(capsys, ["arrows", "--f", "K3", "--g", "K1", "--h", "K2"])
    assert code == 1
    assert "at least one edge" in err
