"""Field-by-field fuzz of every CLI input file.

One field of one line is replaced at a time with a bad value: null, a
string, a negative, a boolean, a float, a list, empty, whitespace, nan/inf,
a non-UTF-8 byte and a 3000-character token. Each run of the CLI must exit
0, or exit 1 with ``error: <path> line <n>: ...`` (the config key named, for
a config value), and no exception may escape ``main``. A qrels docid that
the corpus lacks is named by its qrels line. Two faults span two files: a
bad qid in the run or in the qrels leaves the run with a qid that the qrels
lack. That one error names both files, without a line.
"""

from __future__ import annotations

import functools
import json
import re
import traceback

import numpy as np
import pytest

from paramdex import checkpoint, cli
from paramdex.cli import main
from paramdex.config import FIELDS
from paramdex.corpus import load_corpus
from paramdex.distributed import partition, write_manifest
from paramdex.nn import Encoder, EncoderConfig

CFG = """
d_model = 16
n_layers = 1
n_heads = 2
d_ff = 32
max_len = 32
window = 16
m_samples = 2
k = 10
eval_ks = 1,5,10
mrr_cutoff = 10
"""

LONG = "x" * 3000

# a column of a tab- or space-separated line
BAD_COLUMN = {
    "null": b"null", "string": b"many", "negative": b"-3", "bool": b"true", "float": b"1.5",
    "list": b"[1]", "empty": b"", "whitespace": b" ", "nan": b"nan", "inf": b"inf",
    "non_utf8": b"\xff", "long": LONG.encode(),
}

# a JSON field value; "missing" drops the field
BAD_JSON = {
    "null": b"null", "string": b'"many"', "negative": b"-3", "bool": b"true", "float": b"1.5",
    "list": b"[1]", "empty": b'""', "whitespace": b'" "', "nan": b"NaN", "inf": b"Infinity",
    "non_utf8": b'"\xff"', "long": f'"{LONG}"'.encode(), "missing": None,
}

_MARK = "\x00fuzz\x00"


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module", autouse=True)
def _one_parser():
    """Building the argument parser is most of a short run's cost, and parsing
    does not change it, so every run here shares one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "build_parser", functools.lru_cache(maxsize=None)(cli.build_parser))
        yield


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    ws = tmp_path_factory.mktemp("fuzz")
    cfg = ws / "exp.cfg"
    cfg.write_text(CFG)
    no_epochs = ws / "no-epochs.cfg"  # train-vanilla then reads its pairs and trains nothing
    no_epochs.write_text(CFG + "pretrain_epochs = 0\nfinetune_epochs = 0\n")
    data, corpus_dir = ws / "data", ws / "corpus"
    assert run_cli("synth", "--docs", 24, "--train-queries", 12, "--heldout-queries", 4,
                   "--out-dir", data, "--config", cfg) == 0
    assert run_cli("ingest", "--docs", data / "docs.jsonl", "--out-dir", corpus_dir, "--config", cfg) == 0
    assert run_cli("pairs", "--corpus-dir", corpus_dir, "--out-dir", ws / "pairs", "--config", cfg) == 0
    assert run_cli("retrieve", "--corpus-dir", corpus_dir, "--queries", data / "train_queries.tsv",
                   "--method", "bm25", "--out-dir", ws, "--config", cfg) == 0
    corp = load_corpus(corpus_dir)
    plan = partition(len(corp), 2, seed=0)
    shards = ws / "shards"
    shards.mkdir()
    write_manifest(shards / "shards.tsv", plan, corp)
    enc_cfg = EncoderConfig(vocab_size=len(corp.vocab), d_model=16, n_layers=1, n_heads=2, d_ff=32, max_len=32)
    for gid, members in enumerate(plan.groups):
        (shards / f"group{gid:02d}").mkdir()
        checkpoint.save_model(shards / f"group{gid:02d}" / "model.ckpt", enc_cfg,
                              Encoder.init(enc_cfg, gid).params,
                              np.zeros((16, len(members)), dtype=np.float32))
    return {"ws": ws, "cfg": cfg, "no_epochs": no_epochs, "data": data, "corpus": corpus_dir,
            "shards": shards}


def _inputs(w):
    """input -> (file to fuzz, its line to edit (0-based), column separator or
    "json", field names, argv of the command that reads it)."""
    d, c, out, cfg = w["data"], w["corpus"], w["ws"] / "out", w["cfg"]
    tail = ("--out-dir", out, "--config", cfg)
    retrieve = ("retrieve", "--corpus-dir", c, "--queries", d / "train_queries.tsv", "--method", "bm25")
    return {
        "raw_docs": (d / "docs.jsonl", 1, "json", ("docid", "text", "clicks"),
                     ("ingest", "--docs", d / "docs.jsonl", *tail)),
        "docs": (c / "docs.jsonl", 1, "json", ("docid", "token_ids", "clicks"), (*retrieve, *tail)),
        "vocab": (c / "vocab.tsv", 4, None, ("token",), (*retrieve, *tail)),
        "queries": (d / "train_queries.tsv", 1, "\t", ("qid", "text"), (*retrieve, *tail)),
        "qrels_eval": (d / "train_qrels.tsv", 1, "\t", ("qid", "docid"),
                       ("eval", "--run", w["ws"] / "run.txt", "--qrels", d / "train_qrels.tsv", *tail)),
        "qrels_subset": (d / "train_qrels.tsv", 1, "\t", ("qid", "docid"),
                         ("subset", "--corpus-dir", c, "--qrels", d / "train_qrels.tsv",
                          "--strategy", "top_click", "--size", 8, *tail)),
        "run": (w["ws"] / "run.txt", 1, " ", ("qid", "q0", "docid", "rank", "score", "tag"),
                ("eval", "--run", w["ws"] / "run.txt", "--qrels", d / "train_qrels.tsv", *tail)),
        "shards": (w["shards"] / "shards.tsv", 1, "\t", ("gid", "docid"),
                   ("shard-merge", "--shards-dir", w["shards"], "--corpus-dir", c,
                    "--queries", d / "train_queries.tsv", *tail)),
        "pairs": (w["ws"] / "pairs" / "pairs.tsv", 1, "\t", ("task", "docid", "text"),
                  ("train-vanilla", "--corpus-dir", c, "--queries", d / "train_queries.tsv",
                   "--qrels", d / "train_qrels.tsv", "--pairs", w["ws"] / "pairs" / "pairs.tsv",
                   "--out-dir", out, "--config", w["no_epochs"])),
    }


# (input, field) pairs whose bad values can only conflict with another file
CROSS_FILE = {("qrels_eval", "qid"), ("run", "qid")}


def _edit(line: bytes, sep, fields: tuple, field: str, value) -> bytes:
    if sep is None:
        return value
    if sep == "json":
        rec = json.loads(line)
        rec.pop(field)
        if value is None:
            return json.dumps(rec).encode()
        rec[field] = _MARK
        return json.dumps(rec).encode().replace(json.dumps(_MARK).encode(), value)
    cols = line.split(sep.encode())
    cols[fields.index(field)] = value
    return sep.encode().join(cols)


def _check(code: int, err: str, path, cross_file: bool, key: str | None = None) -> str | None:
    """Why a run broke the contract, or None."""
    if "Traceback" in err:
        return "traceback on stderr"
    if code == 0:
        return None
    m = re.search(r"^error: (.*)$", err, re.M)
    if code != 1 or not m:
        return f"exit {code} without an error line"
    msg = m.group(1)
    if re.match(rf"{re.escape(str(path))} line \d+: ", msg):
        return None
    if key is not None and f"config key '{key}'" in msg:
        return None
    if cross_file and re.search(rf"{re.escape(str(path))}: ", msg):
        return None
    return f"error names neither the line nor the key: {msg[:200]}"


def _run(argv, capsys) -> tuple[int, str]:
    try:
        code = run_cli(*argv)
    except Exception as e:  # an escaped exception is what the fuzz looks for
        capsys.readouterr()
        return -1, "Traceback: " + "".join(traceback.format_exception_only(type(e), e))
    return code, capsys.readouterr().err


@pytest.mark.parametrize("name", ["raw_docs", "docs", "vocab", "queries", "qrels_eval",
                                  "qrels_subset", "run", "shards", "pairs"])
def test_field_fuzz(ws, capsys, name):
    path, line_no, sep, fields, argv = _inputs(ws)[name]
    original = path.read_bytes()
    lines = original.split(b"\n")
    bad_values = BAD_JSON if sep == "json" else BAD_COLUMN
    broken = []
    try:
        for field in fields:
            for value_name, value in bad_values.items():
                edited = list(lines)
                edited[line_no] = _edit(lines[line_no], sep, fields, field, value)
                path.write_bytes(b"\n".join(edited))
                code, err = _run(argv, capsys)
                why = _check(code, err, path, (name, field) in CROSS_FILE)
                if why:
                    broken.append(f"{field}={value_name}: {why}")
    finally:
        path.write_bytes(original)
    assert not broken, "\n".join(broken)


def test_config_fuzz(ws, capsys, tmp_path):
    path = tmp_path / "full.cfg"
    tail = ("--out-dir", ws["ws"] / "out", "--config", path)
    commands = {  # pairs also passes the seed to numpy's SeedSequence
        "retrieve": ("retrieve", "--corpus-dir", ws["corpus"], "--queries", ws["data"] / "train_queries.tsv",
                     "--method", "bm25", *tail),
        "pairs": ("pairs", "--corpus-dir", ws["corpus"], *tail),
    }
    broken = []
    for key in FIELDS:
        for value_name, value in BAD_COLUMN.items():
            # every key at its default but this one
            path.write_bytes(b"".join(k.encode() + b" = " + (value if k == key else str(v[1]).encode()) + b"\n"
                                      for k, v in FIELDS.items()))
            for name, argv in commands.items():
                code, err = _run(argv, capsys)
                why = _check(code, err, path, False, key)
                if why:
                    broken.append(f"{name} {key}={value_name}: {why}")
    assert not broken, "\n".join(broken)
