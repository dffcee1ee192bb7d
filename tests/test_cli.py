import argparse
import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cobwebs
from cobwebs import boolmat, cli, cobweb, digraph, fseq
from cobwebs.cobweb import build_cobweb
from cobwebs.fseq import FSequence

from conftest import cli_env, golden_text


def run(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def run_process(*argv, **env):
    """Run the CLI in a fresh interpreter with extra environment variables."""
    return subprocess.run(
        [sys.executable, "-m", "cobwebs.cli", *argv], env=cli_env(**env),
        capture_output=True, text=True,
    )


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def write_digraph(path, d):
    """Write ``d`` as the digraph JSON text that ``digraph_to_json`` gives in pieces."""
    path.write_text("".join(digraph.digraph_to_json(d)), encoding="utf-8")
    return str(path)


E1_JSON = {
    "dom": ["x1", "x2", "x3"],
    "ran": ["z1", "z2", "z3", "z4"],
    "pairs": [["x1", "z1"], ["x1", "z2"], ["x1", "z4"], ["x2", "z3"], ["x3", "z3"]],
}
E2_JSON = {
    "dom": ["z1", "z2", "z3", "z4"],
    "ran": ["y1", "y2"],
    "pairs": [["z1", "y1"], ["z2", "y1"], ["z3", "y2"], ["z4", "y2"]],
}


def test_zeta_prints_golden_grid(capsys):
    status, out, err = run(capsys, "zeta", "--seq", "explicit:1,2,3,4,5,1")
    assert status == 0 and err == ""
    assert out == golden_text("zeta_n_16.txt")


def test_zeta_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "zeta", "--seq", "fibonacci", "--levels", "6")
    _, second, _ = run(capsys, "zeta", "--seq", "fibonacci", "--levels", "6")
    assert first == second


def test_hasse_json_roundtrips_into_zeta(capsys, tmp_path):
    path = tmp_path / "hasse.json"
    status, out, _ = run(
        capsys, "hasse", "--seq", "explicit:1,2,3,4,5,1", "--format", "json",
        "--out", str(path),
    )
    assert status == 0 and out == ""
    status, out, _ = run(capsys, "zeta", "--from", str(path))
    assert status == 0
    assert out == golden_text("zeta_n_16.txt")


def test_hasse_text_grid(capsys):
    status, out, _ = run(capsys, "hasse", "--seq", "explicit:1,2")
    assert status == 0
    assert out == "0 1 1\n0 0 0\n0 0 0\n"


def test_build_emits_digraph_json(capsys):
    status, out, _ = run(capsys, "build", "--seq", "explicit:1,2")
    assert status == 0
    payload = json.loads(out)
    assert payload == {"levels": [1, 2], "arcs": [[[1, 1]]]}


def test_dot_output(capsys):
    status, out, _ = run(capsys, "dot", "--seq", "explicit:1,2")
    assert status == 0
    assert out.startswith("digraph {")
    assert out.count("->") == 2
    assert out.count("rank=same") == 2


def test_paths_command(capsys):
    status, out, _ = run(
        capsys, "paths", "--seq", "explicit:1,2,3", "--x", "1", "--y", "6"
    )
    assert status == 0 and out == "2\n"
    status, _, err = run(
        capsys, "paths", "--seq", "explicit:1,2,3", "--x", "1", "--y", "9"
    )
    assert status == 1 and "out of range" in err


def test_join_command(capsys, tmp_path):
    left = write_json(tmp_path / "e1.json", E1_JSON)
    right = write_json(tmp_path / "e2.json", E2_JSON)
    status, out, _ = run(capsys, "join", "--left", left, "--right", right)
    assert status == 0
    payload = json.loads(out)
    assert payload["columns"] == [
        ["x1", "x2", "x3"],
        ["z1", "z2", "z3", "z4"],
        ["y1", "y2"],
    ]
    assert payload["tuples"] == [
        ["x1", "z1", "y1"],
        ["x1", "z2", "y1"],
        ["x1", "z4", "y2"],
        ["x2", "z3", "y2"],
        ["x3", "z3", "y2"],
    ]


def test_join_rejects_middle_mismatch_naming_both_sets(capsys, tmp_path):
    left = write_json(tmp_path / "e1.json", E1_JSON)
    other = dict(E2_JSON, dom=["w1", "w2", "w3", "w4"], pairs=[["w1", "y1"]])
    right = write_json(tmp_path / "e2.json", other)
    status, out, err = run(capsys, "join", "--left", left, "--right", right)
    assert status == 1 and out == ""
    assert "z1" in err and "w1" in err  # both middle sets are named


def test_compose_command(capsys, tmp_path):
    left = write_json(tmp_path / "e1.json", E1_JSON)
    right = write_json(tmp_path / "e2.json", E2_JSON)
    status, out, _ = run(capsys, "compose", "--left", left, "--right", right)
    assert status == 0
    payload = json.loads(out)
    assert payload["pairs"] == [["x1", "y1"], ["x1", "y2"], ["x2", "y2"], ["x3", "y2"]]


def test_check_ferrers_ok(capsys):
    status, out, _ = run(capsys, "check-ferrers", "--seq", "fibonacci", "--levels", "5")
    assert status == 0
    assert out.splitlines()[0] == "OK: all blocks Ferrers"


def test_check_ferrers_failure_prints_witness(capsys, tmp_path):
    from cobwebs.cobweb import fibonacci_tree

    path = write_digraph(tmp_path / "tree.json", fibonacci_tree(5))
    status, out, _ = run(capsys, "check-ferrers", "--from", path)
    assert status == 1
    assert "FAIL: block 2 rows (1,2) cols (1,3) pattern 10" in out


def test_check_dim2(capsys, tmp_path):
    status, out, _ = run(capsys, "check-dim2", "--seq", "gaussian:2", "--levels", "5")
    assert status == 0 and out.startswith("OK")

    from cobwebs.cobweb import build_cobweb, delete_arcs

    pruned = delete_arcs(build_cobweb([1, 2, 2]), [(2, 4), (3, 5)])
    path = write_digraph(tmp_path / "pruned.json", pruned)
    status, out, _ = run(capsys, "check-dim2", "--from", path)
    assert status == 1 and out.startswith("FAIL")


def test_decompose_command(capsys, tmp_path):
    nary = {
        "columns": [["x1", "x2", "x3"], ["z1", "z2", "z3", "z4"], ["y1", "y2"]],
        "tuples": [
            ["x1", "z1", "y1"],
            ["x1", "z2", "y1"],
            ["x1", "z4", "y2"],
            ["x2", "z3", "y2"],
            ["x3", "z3", "y2"],
        ],
    }
    path = write_json(tmp_path / "t.json", nary)
    status, out, _ = run(capsys, "decompose", "--from", path)
    assert status == 0
    payload = json.loads(out)
    assert payload["decomposable"] is True
    assert payload["links"][0]["pairs"] == E1_JSON["pairs"]
    assert payload["links"][1]["pairs"] == E2_JSON["pairs"]


# peak RSS of the command run as this script's only child
RUSAGE_PROBE = """
import json, resource, subprocess, sys, time
start = time.perf_counter()
run = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                     timeout=10)
print(json.dumps({"status": run.returncode, "stderr": run.stderr,
                  "seconds": time.perf_counter() - start,
                  "peak_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}))
"""


def probe_cli(*argv):
    """Status, stderr, seconds and peak RSS of one CLI process."""
    probe = subprocess.run(
        [sys.executable, "-c", RUSAGE_PROBE, sys.executable, "-m", "cobwebs.cli", *argv],
        env=cli_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(probe.stdout)


def test_decompose_counts_a_rejoin_too_large_to_build(tmp_path):
    # five columns of 40 labels: the projections re-join to tens of millions of tuples
    rng = random.Random(0)
    columns = [[f"{c}{i}" for i in range(40)] for c in "abcde"]
    tuples = {tuple(rng.choice(col) for col in columns) for _ in range(3000)}
    nary = {"columns": columns, "tuples": sorted(map(list, tuples))}
    path = write_json(tmp_path / "t.json", nary)
    out = tmp_path / "out.json"
    report = probe_cli("decompose", "--from", path, "--out", str(out))
    assert report["status"] == 0 and report["stderr"] == ""
    assert report["seconds"] < 2 and report["peak_mb"] < 300
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["decomposable"] is False and len(payload["links"]) == 4


@pytest.mark.parametrize("command", ["join", "compose", "decompose"])
def test_relation_commands_scale_with_pairs_not_label_sets(tmp_path, command):
    # 20,000 labels per set and three pairs per link: a dense product would be cubic
    x, y, z = ([f"{c}{i}" for i in range(20_000)] for c in "xyz")
    left = {"dom": x, "ran": y, "pairs": [["x0", "y0"], ["x1", "y0"], ["x2", "y7"]]}
    right = {"dom": y, "ran": z, "pairs": [["y0", "z5"], ["y0", "z9"], ["y3", "z1"]]}
    nary = {"columns": [x, y, z], "tuples": [["x0", "y0", "z5"], ["x1", "y0", "z9"]]}
    if command == "decompose":
        argv = ["--from", write_json(tmp_path / "t.json", nary)]
    else:
        argv = ["--left", write_json(tmp_path / "l.json", left),
                "--right", write_json(tmp_path / "r.json", right)]
    out = tmp_path / "out.json"
    report = probe_cli(command, *argv, "--out", str(out))
    assert report["status"] == 0 and report["stderr"] == ""
    assert report["peak_mb"] < 300
    payload = json.loads(out.read_text(encoding="utf-8"))
    if command == "join":
        assert payload["tuples"] == [["x0", "y0", "z5"], ["x0", "y0", "z9"],
                                     ["x1", "y0", "z5"], ["x1", "y0", "z9"]]
    elif command == "compose":
        assert payload["pairs"] == [["x0", "z5"], ["x0", "z9"], ["x1", "z5"], ["x1", "z9"]]
    else:
        assert payload["decomposable"] is False


@pytest.mark.parametrize("command, payloads", [
    ("compose", {
        "left": {"dom": ["a", "b"], "ran": ["z"], "pairs": [[x, "z"] for x in "qrstu"]},
        "right": {"dom": ["z"], "ran": ["y"], "pairs": []},
    }),
    ("decompose", {
        "from": {"columns": [["a"], ["z"]], "tuples": [[x, "z"] for x in "qrstu"]},
    }),
])
def test_validation_error_names_the_smallest_bad_entry(tmp_path, command, payloads):
    argv = [command]
    for flag, payload in payloads.items():
        argv += [f"--{flag}", write_json(tmp_path / f"{flag}.json", payload)]
    runs = [run_process(*argv, PYTHONHASHSEED=seed) for seed in ("1", "2")]
    assert [r.returncode for r in runs] == [1, 1]
    assert runs[0].stderr == runs[1].stderr
    assert runs[0].stderr.startswith("error: ") and "'q' not in" in runs[0].stderr


def test_fibtree_command(capsys):
    status, out, _ = run(capsys, "fibtree", "--levels", "5")
    assert status == 0
    assert json.loads(out)["levels"] == [1, 1, 2, 3, 5]
    status, out, _ = run(capsys, "fibtree", "--levels", "2", "--format", "text")
    assert status == 0 and out == "0 1\n0 0\n"
    status, out, _ = run(capsys, "fibtree", "--levels", "3", "--format", "dot")
    assert status == 0 and out.startswith("digraph {") and out.count("->") == 3


def test_zeta_json_format(capsys):
    status, out, _ = run(capsys, "zeta", "--seq", "explicit:1,2", "--format", "json")
    assert status == 0
    assert json.loads(out) == [[1, 1, 1], [0, 1, 0], [0, 0, 1]]


# the empty shapes, small ones, and row counts on both sides of a piece edge: a piece
# of 100 bytes holds 16 text rows or 3 JSON rows of 3 entries
GRID_SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (7, 7), (9, 4),
               (2, 3), (3, 3), (4, 3), (7, 3), (15, 3), (16, 3), (17, 3), (33, 3)]


def grid_oracle(m, fmt):
    """The grid written without the library: ``json.dumps``, or one joined line per row."""
    if fmt == "json":
        return json.dumps(m.astype(int).tolist(), indent=2, sort_keys=True) + "\n"
    return "".join(" ".join("1" if x else "0" for x in row) + "\n" for row in m)


def check_grid_pieces(monkeypatch, seed, fmt):
    """``cli._grid_pieces`` writes the oracle's bytes for every shape and piece size."""
    rng = np.random.default_rng(seed)
    for piece_bytes in (1, 100, fseq.PIECE_BYTES):
        monkeypatch.setattr(fseq, "PIECE_BYTES", piece_bytes)
        for rows, cols in GRID_SHAPES:
            if fmt == "json" and not (rows and cols):  # every grid the CLI writes has a vertex
                continue
            m = rng.random((rows, cols)) < 0.5
            pieces = list(cli._grid_pieces(m, fmt))
            assert "".join(pieces) == grid_oracle(m, fmt), (piece_bytes, rows, cols)
            if piece_bytes == 1:  # a row per piece, the first opening the list, the last closing it
                assert len(pieces) == max(rows, 1)


@pytest.mark.parametrize("seed", [1, 2, 256])
def test_json_grid_pieces_match_json_dumps(monkeypatch, seed):
    check_grid_pieces(monkeypatch, seed, "json")


@pytest.mark.parametrize("seed", [1, 2, 256])
def test_text_grid_pieces_match_to_text(monkeypatch, seed):
    # to_text is the grid writer itself, so the text oracle is a plain per-row join
    check_grid_pieces(monkeypatch, seed, "text")


def test_zeta_json_bytes_match_json_dumps(capsys, tmp_path):
    argv = ["zeta", "--seq", "fibonacci", "--levels", "7", "--format", "json"]
    status, out, _ = run(capsys, *argv)
    assert status == 0
    z = digraph.transitive_closure(build_cobweb(FSequence.fibonacci(), 7).hasse).leq
    assert out == json.dumps(z.astype(int).tolist(), indent=2, sort_keys=True) + "\n"
    path = tmp_path / "zeta.json"
    assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert path.read_text(encoding="utf-8") == out


def test_unwritable_out_is_a_domain_error(capsys, tmp_path):
    for path in (tmp_path, tmp_path / "missing" / "x.txt"):  # a directory, no parent
        status, out, err = run(capsys, "zeta", "--seq", "naturals", "--levels", "3",
                               "--out", str(path))
        assert status == 1 and out == ""
        assert err.startswith(f"error: cannot write {path}: ")


def test_closed_stdout_exits_1_without_a_traceback():
    # 1830 rows of text, far more than a pipe buffers: the writer meets the closed end
    proc = subprocess.Popen(
        [sys.executable, "-m", "cobwebs.cli", "zeta", "--seq", "naturals", "--levels", "60"],
        env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b"1 1 1 1 1 "
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err


def test_out_of_memory_exits_1_without_a_traceback():
    # numpy asks for the 100,000 x 100,000 block at once; a 1 GB address space refuses it
    limit = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "cobwebs.cli", "build", "--seq", "constant:100000", "--levels", "2"],
        env=cli_env(COBWEB_MAX_VERTICES="200000", OPENBLAS_NUM_THREADS="1"),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


# every subcommand's usage at 80 columns: option order, with --out last
USAGES = {
    "build": "usage: cobweb build [-h] [--seq SEQ] [--levels LEVELS] [--out OUT]\n",
    "hasse": "usage: cobweb hasse [-h] [--seq SEQ] [--levels LEVELS] [--from PATH]\n"
             "                    [--format {text,json}] [--out OUT]\n",
    "zeta": "usage: cobweb zeta [-h] [--seq SEQ] [--levels LEVELS] [--from PATH]\n"
            "                   [--format {text,json}] [--out OUT]\n",
    "dot": "usage: cobweb dot [-h] [--seq SEQ] [--levels LEVELS] [--from PATH] [--out OUT]\n",
    "paths": "usage: cobweb paths [-h] [--seq SEQ] [--levels LEVELS] [--from PATH] --x X --y\n"
             "                    Y [--out OUT]\n",
    "join": "usage: cobweb join [-h] --left LEFT --right RIGHT [--out OUT]\n",
    "compose": "usage: cobweb compose [-h] --left LEFT --right RIGHT [--out OUT]\n",
    "check-ferrers": "usage: cobweb check-ferrers [-h] [--seq SEQ] [--levels LEVELS] "
                     "[--from PATH]\n                            [--out OUT]\n",
    "check-dim2": "usage: cobweb check-dim2 [-h] [--seq SEQ] [--levels LEVELS] [--from PATH]\n"
                  "                         [--out OUT]\n",
    "decompose": "usage: cobweb decompose [-h] --from PATH [--out OUT]\n",
    "fibtree": "usage: cobweb fibtree [-h] --levels LEVELS [--format {json,text,dot}]\n"
               "                      [--out OUT]\n",
}


def test_subcommand_usages(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {name: sub.format_usage() for name, sub in subs.choices.items()} == USAGES


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["no-such-command"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["zeta", "--bogus"])
    assert excinfo.value.code == 2


def test_domain_errors_exit_1(capsys):
    status, _, err = run(capsys, "zeta", "--seq", "nonsense")
    assert status == 1 and "bad sequence spec" in err
    status, _, err = run(capsys, "zeta", "--seq", "fibonacci")
    assert status == 1 and "--levels" in err
    status, _, err = run(capsys, "zeta")
    assert status == 1 and "--seq or --from" in err
    status, _, err = run(capsys, "decompose", "--from", "/nonexistent.json")
    assert status == 1 and "cannot read" in err


def test_vertex_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("COBWEB_MAX_VERTICES", "10")
    status, _, err = run(capsys, "zeta", "--seq", "explicit:4,4,4")
    assert status == 1 and "COBWEB_MAX_VERTICES" in err
    monkeypatch.setenv("COBWEB_MAX_VERTICES", "100")
    status, _, _ = run(capsys, "zeta", "--seq", "explicit:4,4,4")
    assert status == 0


@pytest.mark.parametrize("raw", ["0", "-5", "ten"])
def test_vertex_cap_must_be_a_positive_integer(capsys, monkeypatch, raw):
    monkeypatch.setenv("COBWEB_MAX_VERTICES", raw)
    status, out, err = run(capsys, "zeta", "--seq", "explicit:1")
    assert status == 1 and out == ""
    assert "COBWEB_MAX_VERTICES must be a positive integer" in err and repr(raw) in err


def test_fibtree_cap_is_checked_before_the_tree_is_built(capsys, monkeypatch):
    def never(n):
        raise AssertionError(f"rabbit tree of {n} generations grown past the vertex cap")

    monkeypatch.setattr(fseq, "_rabbit_tree", never)  # fibtree and fibonacci_tree grow from it
    monkeypatch.setenv("COBWEB_MAX_VERTICES", "10")
    status, out, err = run(capsys, "fibtree", "--levels", "40")
    assert status == 1 and out == "" and "exceeds COBWEB_MAX_VERTICES=10" in err


def test_level_sizes_stop_once_the_cap_is_passed(capsys, monkeypatch):
    calls = []
    original = fseq.level_size

    def counted(seq, k):
        calls.append(k)
        return original(seq, k)

    monkeypatch.setattr(fseq, "level_size", counted)
    monkeypatch.setenv("COBWEB_MAX_VERTICES", "100")
    status, _, err = run(capsys, "zeta", "--seq", "naturals", "--levels", "1000000")
    assert status == 1 and "exceeds COBWEB_MAX_VERTICES=100" in err
    assert len(calls) == 14  # 1 + 2 + ... + 14 = 105 is the first total past 100


@pytest.mark.parametrize("argv, env, status, message", [
    (["--help"], {}, 0, "usage: cobweb"),
    (["paths", "--seq", "naturals", "--levels", "5"], {}, 2, "required"),
    (["hasse", "--seq", "bogus", "--levels", "3"], {}, 1, "bad sequence spec 'bogus'"),
    (["zeta", "--seq", "naturals", "--levels", "30"], {"COBWEB_MAX_VERTICES": "100"}, 1,
     "exceeds COBWEB_MAX_VERTICES=100"),
    (["fibtree", "--levels", "40"], {"COBWEB_MAX_VERTICES": "10"}, 1,
     "exceeds COBWEB_MAX_VERTICES=10"),
    (["zeta", "--from", "MISSING"], {}, 1, "error: cannot read"),
    (["zeta", "--from", "OVER_CAP"], {"COBWEB_MAX_VERTICES": "10"}, 1,
     "error: construction of at least 50 vertices exceeds COBWEB_MAX_VERTICES=10"),
    (["zeta", "--from", "BELOW_1"], {}, 1, "error: level sizes must be >= 1, got (0, 2)"),
    (["zeta", "--from", "BAD_ARCS"], {}, 1,
     "error: bad digraph JSON: arc block 0 is not a list of 0/1 rows"),
    (["paths", "--seq", "naturals", "--levels", "4", "--x", "0", "--y", "3"], {}, 1,
     "vertex 0 out of range 1..10"),
    (["paths", "--seq", "naturals", "--levels", "4", "--x", "1", "--y", "11"], {}, 1,
     "vertex 11 out of range 1..10"),
    (["hasse", "--seq", "naturals:5", "--levels", "3"], {}, 1,
     "bad sequence spec 'naturals:5': naturals takes no argument"),
], ids=["help", "usage", "bad-seq", "cap", "fibtree-cap", "missing-file", "from-cap",
        "from-level-below-1", "from-bad-arcs", "paths-x", "paths-y", "seq-argument"])
def test_early_exits_never_import_numpy(tmp_path, argv, env, status, message):
    files = {"MISSING": str(tmp_path / "missing.json"),
             "OVER_CAP": write_json(tmp_path / "over.json", {"levels": [50, 50], "arcs": [[]]}),
             "BELOW_1": write_json(tmp_path / "below.json", {"levels": [0, 2], "arcs": [[]]}),
             "BAD_ARCS": write_json(tmp_path / "bad.json", {"levels": [1, 2], "arcs": [[[1, 2]]]})}
    argv = [files.get(a, a) for a in argv]
    proc, imports = run_importtime(argv, **env)
    assert proc.returncode == status
    assert message in (proc.stdout if status == 0 else proc.stderr)
    assert imports and not [ln for ln in imports if "numpy" in ln]


def run_importtime(argv, **env):
    """``cobweb ARGV`` under ``-X importtime``: the process and its import lines."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cobwebs.cli", *argv],
        env=cli_env(**env), capture_output=True, text=True,
    )
    return proc, [ln for ln in proc.stderr.splitlines() if ln.startswith("import time:")]


# every --seq subcommand and format
SEQ_ANSWERS = [["build"], ["hasse"], ["hasse", "--format", "json"], ["zeta"],
               ["zeta", "--format", "json"], ["dot"], ["paths", "--x", "2", "--y", "6"],
               ["check-ferrers"], ["check-dim2"]]


@pytest.mark.parametrize("argv", SEQ_ANSWERS, ids=" ".join)
def test_seq_answers_never_import_numpy(argv):
    proc, imports = run_importtime([*argv, "--seq", "fibonacci", "--levels", "5"])
    assert proc.returncode == 0 and proc.stdout
    assert imports and not [ln for ln in imports if "numpy" in ln]


# the relation subcommands; LEFT, RIGHT and NARY stand for input files
RELATION_COMMANDS = [["join", "--left", "LEFT", "--right", "RIGHT"],
                     ["compose", "--left", "LEFT", "--right", "RIGHT"],
                     ["decompose", "--from", "NARY"]]


@pytest.mark.parametrize("argv", RELATION_COMMANDS, ids=lambda argv: argv[0])
def test_relation_commands_never_import_numpy(tmp_path, argv):
    proc, imports = run_importtime(input_files(tmp_path, argv))
    assert proc.returncode == 0 and proc.stdout
    assert imports and not [ln for ln in imports if "numpy" in ln]


# every --from subcommand and format: the --seq ones less build, which takes no --from
FROM_ANSWERS = [argv for argv in SEQ_ANSWERS if argv != ["build"]]


@pytest.mark.parametrize("argv, status", [
    *[pytest.param([*a, "--from", "COBWEB"], 0, id=" ".join(a) + " --from cobweb")
      for a in FROM_ANSWERS],
    pytest.param(["check-dim2", "--from", "DIGRAPH"], 1, id="check-dim2 --from digraph"),
    *[pytest.param(["fibtree", "--levels", "6", "--format", f], 0, id=f"fibtree {f}")
      for f in ("json", "text", "dot")],
])
def test_answers_without_matrices_never_import_numpy(tmp_path, argv, status):
    proc, imports = run_importtime(input_files(tmp_path, argv))
    assert proc.returncode == status and proc.stdout
    assert imports and not [ln for ln in imports if "numpy" in ln]


def test_check_ferrers_from_a_digraph_calls_bool_product(capsys, monkeypatch, tmp_path):
    # the one CLI call of boolmat.bool_product that the benchmark's traced deck makes
    calls = []
    original = boolmat.bool_product

    def traced(a, b):
        calls.append((a.shape, b.shape))
        return original(a, b)

    path = write_digraph(tmp_path / "d.json", NOT_A_COBWEB)
    monkeypatch.setattr(digraph, "bool_product", traced)  # the binding the level sweep calls
    status, out, _ = run(capsys, "check-ferrers", "--from", path)
    assert status == 0 and out and calls


# the package modules one command leaves loaded
LOADED_BY = """
import contextlib, io, sys
from cobwebs import cli
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(sys.argv[1:])
print(status, *sorted(m for m in sys.modules if m.startswith("cobwebs.")))
"""


SEQ = ["--seq", "naturals", "--levels", "3"]
CORE = ["cobwebs.boolmat", "cobwebs.cli", "cobwebs.digraph", "cobwebs.fseq"]
SEQ_ONLY = ["cobwebs.cli", "cobwebs.fseq"]  # a --seq answer is a closed form of the level sizes


# a --from file with every arc but one: answered through its matrices
NOT_A_COBWEB = cobweb.delete_arcs(build_cobweb([1, 2, 3]), [(2, 4)])


def input_files(tmp_path, argv):
    """ARGV with the arguments COBWEB, DIGRAPH, LEFT, RIGHT and NARY written as input files."""
    files = {
        "LEFT": E1_JSON,
        "RIGHT": E2_JSON,
        "NARY": {"columns": [["x1", "x2"], ["z1"]], "tuples": [["x1", "z1"]]},
    }
    written = {a: write_json(tmp_path / f"{a}.json", payload) for a, payload in files.items()}
    written["DIGRAPH"] = write_digraph(tmp_path / "DIGRAPH.json", NOT_A_COBWEB)
    written["COBWEB"] = write_digraph(tmp_path / "COBWEB.json", build_cobweb([1, 2, 3]))
    return [written.get(a, a) for a in argv]


def loaded_by(tmp_path, argv):
    """The exit status and the modules of ``cobweb ARGV`` in a fresh interpreter."""
    argv = input_files(tmp_path, argv)
    proc = subprocess.run([sys.executable, "-c", LOADED_BY, *argv],
                          env=cli_env(), capture_output=True, text=True, check=True)
    return proc.stdout.split()


@pytest.mark.parametrize("argv, modules", [
    *[pytest.param([c, *SEQ], SEQ_ONLY, id=c)
      for c in ("zeta", "hasse", "dot", "build", "check-dim2")],
    pytest.param(["paths", *SEQ, "--x", "1", "--y", "4"], SEQ_ONLY, id="paths"),
    pytest.param(["fibtree", "--levels", "3"], SEQ_ONLY, id="fibtree"),
    pytest.param(["zeta", "--from", "DIGRAPH"], CORE, id="zeta-from"),
    pytest.param(["dot", "--from", "DIGRAPH"], CORE, id="dot-from"),
    pytest.param(["zeta", "--from", "COBWEB"], SEQ_ONLY, id="zeta-from-cobweb"),
    pytest.param(["hasse", "--from", "DIGRAPH"], CORE, id="hasse-from"),
    pytest.param(["paths", "--from", "DIGRAPH", "--x", "1", "--y", "4"],
                 [*CORE, "cobwebs.cobweb"], id="paths-from"),
])
def test_cobweb_subcommands_load_neither_njoin_nor_ferrers(tmp_path, argv, modules):
    assert loaded_by(tmp_path, argv) == ["0", *sorted(modules)]


@pytest.mark.parametrize("argv, modules", [
    (["check-ferrers", *SEQ], SEQ_ONLY),
    (["check-ferrers", "--from", "DIGRAPH"], [*CORE, "cobwebs.ferrers"]),
    *[(argv, [*SEQ_ONLY, "cobwebs.njoin"]) for argv in RELATION_COMMANDS],
], ids=["check-ferrers", "check-ferrers-from", "join", "compose", "decompose"])
def test_ferrers_and_relation_subcommands_load_only_their_module(tmp_path, argv, modules):
    assert loaded_by(tmp_path, argv) == ["0", *sorted(modules)]


# bench/spans.py traces the CLI by wrapping these functions on the digraph module
@pytest.mark.parametrize("fmt, name", [
    ("text", "global_adjacency"), ("dot", "to_dot"), ("json", "digraph_to_json"),
])
def test_digraph_writers_call_the_digraph_module_as_it_is_at_call_time(
        capsys, monkeypatch, tmp_path, fmt, name):
    calls = []
    original = getattr(digraph, name)

    def traced(d):
        calls.append(d.levels)
        return original(d)

    path = write_digraph(tmp_path / "tree.json", cobweb.fibonacci_tree(4))  # not a cobweb
    monkeypatch.setattr(digraph, name, traced)
    argv = {"text": ["hasse"], "dot": ["dot"], "json": ["hasse", "--format", "json"]}[fmt]
    status, out, _ = run(capsys, *argv, "--from", path)
    assert status == 0 and out and calls == [(1, 1, 2, 3)]


# ... and the --from grids and digraph JSON through boolmat.to_text, which it wraps the same way
@pytest.mark.parametrize("argv, shapes", [
    pytest.param(["zeta", "--format", "text"], [(7, 7)], id="text"),
    pytest.param(["zeta", "--format", "json"], [(7, 7)], id="json"),
    pytest.param(["hasse", "--format", "json"], [(1, 1), (1, 2), (2, 3)], id="digraph-json"),
])
def test_from_grids_call_to_text_as_it_is_at_call_time(
        capsys, monkeypatch, tmp_path, argv, shapes):
    calls = []
    original = boolmat.to_text

    def traced(m, *form):
        calls.append(m.shape)
        return original(m, *form)

    path = write_digraph(tmp_path / "tree.json", cobweb.fibonacci_tree(4))  # not a cobweb
    monkeypatch.setattr(boolmat, "to_text", traced)
    status, out, _ = run(capsys, *argv, "--from", path)
    assert status == 0 and out and calls == shapes


@pytest.mark.parametrize("argv", [
    ["zeta", "--seq", "fibonacci", "--levels", "2"],
    ["paths", "--x", "1", "--y", "6", "--levels", "2"],
    ["hasse", "--seq", "naturals"],
], ids=["seq-and-levels", "levels", "seq"])
def test_from_refuses_seq_and_levels_before_reading_the_file(capsys, tmp_path, argv):
    path = tmp_path / "n3.json"
    assert run(capsys, "build", "--seq", "naturals", "--levels", "3", "--out", str(path)) == (
        0, "", "")
    for source in (path, tmp_path / "missing.json"):
        status, out, err = run(capsys, *argv, "--from", str(source))
        assert (status, out) == (1, "")
        assert err == "error: --seq and --levels cannot be used with --from\n"


@pytest.mark.parametrize("payload", [
    {"levels": [1, 2], "arcs": 5},
    {"levels": [1, 2], "arcs": [[[1, 1], [1]]]},
    {"levels": [1, 2], "arcs": [[["1", 1]]]},
    {"levels": ["one", 2], "arcs": [[[1, 1]]]},
    {"levels": [1.5, 2], "arcs": [[[1, 1]]]},
    {"levels": ["1", 2], "arcs": [[[1, 1]]]},
    {"levels": [True, 2], "arcs": [[[1, 1]]]},
    {"levels": [1, 2], "arcs": [[[True, 1]]]},
    {"levels": [1, 2], "arcs": [[[1, False]]]},
    {"levels": [1, 2], "arcs": [[[1.0, 1]]]},
])
def test_malformed_digraph_json_is_a_domain_error(capsys, tmp_path, payload):
    path = write_json(tmp_path / "bad.json", payload)
    status, out, err = run(capsys, "zeta", "--from", path)
    assert status == 1 and out == ""
    assert "bad digraph JSON" in err and "inhomogeneous" not in err


@pytest.mark.parametrize("command", [
    ["zeta", "--from", "{path}"],
    ["join", "--left", "{path}", "--right", "{path}"],
    ["decompose", "--from", "{path}"],
])
def test_deeply_nested_json_is_a_domain_error(capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    status, out, err = run(capsys, *(a.format(path=path) for a in command))
    assert status == 1 and out == ""
    assert f"error: {path} is not valid JSON" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["zeta", "dot", "check-ferrers", "check-dim2"])
def test_zero_level_digraph_json_is_a_domain_error(capsys, tmp_path, command):
    path = write_json(tmp_path / "empty.json", {"levels": [], "arcs": []})
    status, out, err = run(capsys, command, "--from", path)
    assert status == 1 and out == ""
    assert err == "error: at least one level is required\n"


@pytest.mark.parametrize("arcs", [[[[1] * 6] * 6], [[["x"]]]], ids=["arcs", "bad-arcs"])
def test_from_cap_is_checked_before_any_arc_is_read(capsys, tmp_path, monkeypatch, arcs):
    def never(*args):
        raise AssertionError("graded digraph built past the vertex cap")

    monkeypatch.setattr(digraph, "GradedDigraph", never)
    monkeypatch.setattr(cli, "_json_arcs", never)
    monkeypatch.setenv("COBWEB_MAX_VERTICES", "10")
    path = write_json(tmp_path / "big.json", {"levels": [6, 6], "arcs": arcs})
    status, out, err = run(capsys, "zeta", "--from", path)
    assert status == 1 and out == ""
    assert err == "error: construction of at least 12 vertices exceeds COBWEB_MAX_VERTICES=10\n"


@pytest.mark.parametrize("levels", [[0, 2], [-20000, 25000]], ids=["zero", "negative"])
def test_from_level_sizes_below_1_are_refused_before_any_arc_is_read(
        capsys, tmp_path, monkeypatch, levels):
    def never(*args):
        raise AssertionError("arcs read after a level size below 1")

    # a negative size would lower the cap's running total: 25000 - 20000 is under the cap
    monkeypatch.setattr(digraph, "digraph_from_json", never)
    monkeypatch.setattr(cli, "_json_arcs", never)
    path = write_json(tmp_path / "bad.json", {"levels": levels, "arcs": [[["x"]]]})
    status, out, err = run(capsys, "zeta", "--from", path)
    assert status == 1 and out == ""
    assert err == f"error: level sizes must be >= 1, got {tuple(levels)}\n"


def test_digraph_json_arc_entries_are_integers(capsys, tmp_path):
    path = write_json(tmp_path / "bad.json", {"levels": [1, 2], "arcs": [[[True, 1.0]]]})
    status, out, err = run(capsys, "zeta", "--from", path)
    assert status == 1 and out == ""
    assert err.startswith("error: bad digraph JSON: arc block 0 ")


@pytest.mark.parametrize("left", [
    {"dom": "xy", "ran": ["a", "b"], "pairs": [["x", "a"], ["y", "b"]]},
    {"dom": ["x", "y"], "ran": ["a", "b"], "pairs": ["xa", ["y", "b"]]},
])
def test_relation_json_strings_are_not_lists(capsys, tmp_path, left):
    left = write_json(tmp_path / "left.json", left)
    right = write_json(tmp_path / "right.json", {"dom": ["a", "b"], "ran": ["c"],
                                                 "pairs": [["a", "c"]]})
    status, out, err = run(capsys, "compose", "--left", left, "--right", right)
    assert status == 1 and out == ""
    assert "bad relation JSON: expected a list, got" in err


@pytest.mark.parametrize("nary", [
    {"columns": ["xy", ["a"]], "tuples": [["x", "a"]]},
    {"columns": [["x", "y"], ["a"]], "tuples": ["xa"]},
])
def test_nary_json_strings_are_not_lists(capsys, tmp_path, nary):
    path = write_json(tmp_path / "t.json", nary)
    status, out, err = run(capsys, "decompose", "--from", path)
    assert status == 1 and out == ""
    assert "bad n-ary relation JSON: expected a list, got" in err


@pytest.mark.parametrize("left", [
    {"dom": [None, ["a"]], "ran": ["b"], "pairs": []},
    {"dom": ["x", True], "ran": ["b"], "pairs": []},
    {"dom": ["x"], "ran": ["b"], "pairs": [[{"x": 1}, "b"]]},
])
def test_relation_json_labels_are_strings_or_numbers(capsys, tmp_path, left):
    left = write_json(tmp_path / "left.json", left)
    right = write_json(tmp_path / "right.json", {"dom": ["b"], "ran": ["c"], "pairs": []})
    status, out, err = run(capsys, "compose", "--left", left, "--right", right)
    assert status == 1 and out == ""
    assert err.startswith("error: bad relation JSON: label ")


@pytest.mark.parametrize("nary", [
    {"columns": [[None, ["a"]], ["b"]], "tuples": []},
    {"columns": [["x"], ["b"]], "tuples": [["x", None]]},
])
def test_nary_json_labels_are_strings_or_numbers(capsys, tmp_path, nary):
    path = write_json(tmp_path / "t.json", nary)
    status, out, err = run(capsys, "decompose", "--from", path)
    assert status == 1 and out == ""
    assert err.startswith("error: bad n-ary relation JSON: label ")


def test_relation_json_number_labels_load_as_strings(capsys, tmp_path):
    left = write_json(tmp_path / "left.json", {"dom": [1], "ran": [2.5], "pairs": [[1, 2.5]]})
    right = write_json(tmp_path / "right.json", {"dom": ["2.5"], "ran": ["c"],
                                                 "pairs": [["2.5", "c"]]})
    status, out, err = run(capsys, "compose", "--left", left, "--right", right)
    assert status == 0 and err == ""
    assert json.loads(out)["pairs"] == [["1", "c"]]


@pytest.mark.parametrize("argv", [
    ["zeta", "--from", "{}"],
    ["join", "--left", "{}", "--right", "{}"],
])
def test_non_utf8_file_is_named(capsys, tmp_path, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    status, out, err = run(capsys, *(a.format(path) for a in argv))
    assert status == 1 and out == ""
    assert err.startswith(f"error: cannot read {path}: ")


def joined(output) -> str:
    return output if isinstance(output, str) else "".join(output)


def matrix_answers(d, x, y) -> dict:
    """Every --seq/--from answer, (text, exit status) by (answer, format), from ``d``'s matrices."""
    z = digraph.transitive_closure(d).leq
    ferrers_failures = [f"FAIL: block {k} {w.describe()}\n"
                        for k, w in cobwebs.ferrers.chain_is_ferrers(list(d.blocks)).failures]
    strict_ok = cobwebs.ferrers.strict_order_is_ferrers(z)
    return {
        ("digraph", "json"): ("".join(digraph.digraph_to_json(d)), 0),
        ("digraph", "text"): (grid_oracle(digraph.global_adjacency(d), "text"), 0),
        ("digraph", "dot"): (digraph.to_dot(d), 0),
        ("zeta", "text"): (grid_oracle(z, "text"), 0),
        ("zeta", "json"): (grid_oracle(z, "json"), 0),
        ("paths", None): (f"{cobweb.count_paths(d, x, y)}\n", 0),
        ("check-ferrers", None): (
            "".join(ferrers_failures or ["OK: all blocks Ferrers\n"])
            + ("OK: strict order matrix Ferrers\n" if strict_ok
               else "FAIL: strict order matrix not Ferrers\n"),
            0 if not ferrers_failures and strict_ok else 1),
        ("check-dim2", None): (
            ("OK: realizer of two linear orders verified\n", 0) if cobweb.verify_dim2(d)
            else ("FAIL: linear-order intersection differs from the partial order\n", 1)),
    }


def answers_agree(sizes, x, y) -> None:
    """Every --seq answer equals the matrix path's answer on the built cobweb."""
    args = argparse.Namespace(x=x, y=y)
    oracle = matrix_answers(build_cobweb(sizes), x, y)
    assert set(cli._FROM_SIZES) == set(oracle)
    for key, closed_form in cli._FROM_SIZES.items():
        text, status = closed_form(sizes, args)
        assert (joined(text), status) == oracle[key], key


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=8), st.data())
def test_closed_forms_match_the_matrix_path(sizes, data):
    n = sum(sizes)
    x, y = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
    for pair in ((x, y), (y, x), (x, x)):  # y below x and x = y as well
        answers_agree(sizes, *pair)


@st.composite
def graded_digraphs(draw):
    """1 to 6 levels of 1 to 6 vertices: a cobweb, or each arc block drawn entry by entry."""
    levels = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    if draw(st.booleans()):
        return build_cobweb(levels)
    blocks = [np.array(draw(st.lists(st.booleans(), min_size=r * c, max_size=r * c)),
                       dtype=bool).reshape(r, c) for r, c in zip(levels, levels[1:])]
    return digraph.GradedDigraph(levels, blocks)


# each --from command line and the answer it gives
FROM_KEYS = {("hasse",): ("digraph", "text"), ("hasse", "--format", "json"): ("digraph", "json"),
             ("zeta",): ("zeta", "text"), ("zeta", "--format", "json"): ("zeta", "json"),
             ("dot",): ("digraph", "dot"), ("paths",): ("paths", None),
             ("check-ferrers",): ("check-ferrers", None), ("check-dim2",): ("check-dim2", None)}


def cli_output(argv) -> tuple[str, int]:
    """Stdout and exit status of ``cobweb ARGV`` in this process, which writes no stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    assert err.getvalue() == ""
    return out.getvalue(), status


@settings(max_examples=100, deadline=None)
@given(graded_digraphs(), st.integers(0, 35), st.integers(0, 35))
@example(digraph.GradedDigraph((3,), ()), 0, 2)
@example(digraph.GradedDigraph((1,), ()), 0, 0)
@example(build_cobweb([2, 3, 1]), 0, 5)
@example(NOT_A_COBWEB, 1, 3)
def test_from_answers_match_the_matrix_path(tmp_path_factory, d, x, y):
    """Complete files are answered from their sizes, the rest through their matrices: the
    bytes and exit status are the matrix path's either way."""
    x, y = 1 + x % d.n_vertices, 1 + y % d.n_vertices
    path = tmp_path_factory.getbasetemp() / "from-answers.json"
    write_json(path, {"levels": list(d.levels), "arcs": [b.astype(int).tolist() for b in d.blocks]})
    oracle = matrix_answers(d, x, y)
    assert set(FROM_KEYS.values()) == set(oracle)
    for argv, key in FROM_KEYS.items():
        argv = [*argv, "--x", str(x), "--y", str(y)] if key[0] == "paths" else list(argv)
        assert cli_output([*argv, "--from", str(path)]) == oracle[key], argv


@pytest.mark.parametrize("piece_bytes", [1, 100, fseq.PIECE_BYTES])
@pytest.mark.parametrize("fmt", ["json", "text", "dot"])
def test_fibtree_writes_the_matrix_writers_bytes(capsys, monkeypatch, fmt, piece_bytes):
    monkeypatch.setattr(fseq, "PIECE_BYTES", piece_bytes)
    for n in range(1, 13):
        t = cobweb.fibonacci_tree(n)
        expected = {"json": lambda: "".join(digraph.digraph_to_json(t)),
                    "text": lambda: grid_oracle(digraph.global_adjacency(t), "text"),
                    "dot": lambda: digraph.to_dot(t)}[fmt]()
        assert run(capsys, "fibtree", "--levels", str(n), "--format", fmt) == (0, expected, ""), n


NOT_ROWS = "bad digraph JSON: arc block {} is not a list of 0/1 rows"


@pytest.mark.parametrize("levels, arcs, message", [
    ([1, 2], [[[True, 1]]], NOT_ROWS.format(0)),
    ([1, 2], [[[1, False]]], NOT_ROWS.format(0)),
    ([1, 2], [[[1.0, 1]]], NOT_ROWS.format(0)),
    ([1, 2], [[[1, 2]]], NOT_ROWS.format(0)),
    ([1, 2], [[["1", 1]]], NOT_ROWS.format(0)),
    ([1, 2, 1], [[[1, 1]], [[1], [1.0]]], NOT_ROWS.format(1)),
    ([1, 2], [[[1, 1]], [[2]]], NOT_ROWS.format(1)),  # before the count of blocks
    ([2, 2], [[[1, 1], [1]]], "bad digraph JSON: arc block 0 has rows of unequal length"),
    ([2, 2], [[[1, 1], [2]]], NOT_ROWS.format(0)),  # before the row lengths
    ([1, 2], [5], NOT_ROWS.format(0)),
    ([1, 2], ["11"], NOT_ROWS.format(0)),
    ([1, 2], [[5]], NOT_ROWS.format(0)),
    ([1, 2], 5, "bad digraph JSON: 'int' object is not iterable"),
    ([1, 2], None, "bad digraph JSON: 'arcs'"),
    ([1, 2], [], "expected 1 arc blocks for 2 levels, got 0"),
    ([1], [[]], "expected 0 arc blocks for 1 levels, got 1"),
    ([1, 2], [[[1, 1]], [[1]]], "expected 1 arc blocks for 2 levels, got 2"),
    ([1, 2], [[[1, 1, 1]]], "arc block 0 has shape (1, 3), expected (1, 2)"),
    ([1, 2], [[]], "arc block 0 has shape (0, 0), expected (1, 2)"),
    ([1, 2], [[[]]], "arc block 0 has shape (1, 0), expected (1, 2)"),
    ([1, 2, 2], [[[1, 1]], [[1, 1]]], "arc block 1 has shape (1, 2), expected (2, 2)"),
])
def test_digraph_json_messages(capsys, tmp_path, levels, arcs, message):
    payload = {"levels": levels} if arcs is None else {"levels": levels, "arcs": arcs}
    path = write_json(tmp_path / "bad.json", payload)
    for command in ("zeta", "dot", "check-ferrers", "check-dim2"):  # one reader for every route
        assert run(capsys, command, "--from", path) == (1, "", f"error: {message}\n"), command
    with pytest.raises(ValueError) as excinfo:
        digraph.digraph_from_json(payload)
    assert str(excinfo.value) == message


@settings(max_examples=100, deadline=None)
@given(graded_digraphs())
@example(digraph.GradedDigraph((3,), ()))
def test_from_digraph_json_matches_json_dumps_at_every_piece_size(d):
    oracle = json.dumps({"arcs": [b.astype(int).tolist() for b in d.blocks],
                         "levels": list(d.levels)}, indent=2, sort_keys=True) + "\n"
    source = digraph.digraph_from_json(json.loads(oracle))  # as --from reads the file
    for piece_bytes in (1, 100, fseq.PIECE_BYTES):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fseq, "PIECE_BYTES", piece_bytes)
            pieces, status = cli._FROM_DIGRAPH["digraph", "json"](source, None)
            pieces = list(pieces)
        assert status == 0 and "".join(pieces) == oracle, piece_bytes
        if piece_bytes == 1:  # an arc block's row opens with 6 spaces and a bracket
            assert all(piece.count("      [\n") <= 1 for piece in pieces)


@pytest.mark.parametrize("piece_bytes", [1, 40])
def test_grid_pieces_split_level_bands_without_changing_bytes(monkeypatch, piece_bytes):
    monkeypatch.setattr(fseq, "PIECE_BYTES", piece_bytes)  # under one row: a row per piece
    assert len(list(fseq.cobweb_grid([6, 1, 6], "zeta", "json"))) == 13
    for sizes in ([1], [3], [1, 2, 3, 4, 5, 1], [6, 1, 6], [2, 5, 5, 2]):
        answers_agree(sizes, 1, sum(sizes))


@pytest.mark.parametrize("argv", [["zeta"], ["zeta", "--format", "json"], ["hasse"], ["dot"]],
                         ids=" ".join)
def test_cap_grids_hold_far_less_than_n_squared_bytes(argv):
    n = 9870  # vertices of --seq naturals --levels 140
    tracemalloc.start()
    try:
        status = cli.main([*argv, "--seq", "naturals", "--levels", "140", "--out", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    # a few pieces of about fseq.PIECE_BYTES (1 MiB) at a time, not the whole grid or drawing
    assert peak < n * n // 12


def test_rabbit_tree_json_holds_far_less_than_its_output():
    tracemalloc.start()
    try:
        status = cli.main(["fibtree", "--levels", "18", "--format", "json", "--out", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    # the tree's child counts and a few pieces of about fseq.PIECE_BYTES (1 MiB), not the
    # 73.5 MB of output or its nested int lists
    assert peak < 32 * 2**20
