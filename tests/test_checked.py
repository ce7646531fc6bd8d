"""The shared reader: its contract, the four on-disk formats under fuzzing,
one error class for a foreign format tag, the config-section reader and
the two configs under fuzzing, and a guard that keeps every reader on the
shared path."""

import copy
import inspect
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corrlab import checked, cli, corpus, gan, mc, neural
from corrlab.exceptions import ConfigError, CorruptData, UnsupportedVersion

SRC = Path(checked.__file__).parent


class TestReaders:
    @pytest.mark.parametrize("read", [checked.read_bytes, checked.read_text,
                                      checked.read_json])
    def test_missing_file_and_directory(self, tmp_path, read):
        for path in (tmp_path / "missing.json", tmp_path):
            with pytest.raises(CorruptData, match=re.escape(str(path))):
                read(path)

    def test_text_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"1.0,\xff\n")
        with pytest.raises(CorruptData, match="m.csv is not UTF-8"):
            checked.read_text(path)
        with pytest.raises(CorruptData, match="m.csv is not UTF-8"):
            checked.read_json(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_bytes(b"\xef\xbb\xbf{\"a\": 1}")
        assert checked.read_json(path) == {"a": 1}
        assert checked.read_text(path) == '{"a": 1}'

    @pytest.mark.parametrize("data", [b"{", b"", b"[" * 100_000])
    def test_not_json(self, data):
        with pytest.raises(CorruptData, match="x.json is not JSON"):
            checked.parse_json(data, "x.json")

    def test_read_object(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"format": "A", "version": 1, "n": 2}))
        tags = {"format": "A", "version": 1}
        assert checked.read_object(path, "a.json", tags,
                                   n=checked.is_count)["n"] == 2
        with pytest.raises(UnsupportedVersion,
                           match="unsupported a.json version 1"):
            checked.read_object(path, "a.json", {"version": 2})
        path.write_text("[1]")
        with pytest.raises(CorruptData, match="a.json must be a JSON object"):
            checked.read_object(path, "a.json", tags)

    def test_require_names_missing_keys_and_bad_values(self):
        with pytest.raises(CorruptData, match="x is missing a, c"):
            checked.require({"b": 1}, "x", a=checked.is_int, b=checked.is_int,
                            c=checked.is_int)
        with pytest.raises(CorruptData,
                           match=r"x b must be an integer >= 0, not -1"):
            checked.require({"b": -1}, "x", b=checked.is_count)

    @pytest.mark.parametrize("test, good, bad", [
        (checked.is_int, [0, -3, 2**70], [True, 1.0, "1", None]),
        (checked.is_count, [0, 5], [-1, False, 0.0]),
        (checked.is_number, [0, 1.5, -2], [True, "1", None, [1]]),
        (checked.is_str, ["", "a"], [b"a", 1]),
        (checked.is_bool, [True, False], [0, 1, None]),
        (checked.is_object, [{}], [[], None]),
        (checked.is_list, [[]], [{}, "[]"]),
    ])
    def test_predicates(self, test, good, bad):
        assert all(test(x) for x in good)
        assert not any(test(x) for x in bad)


# ---------------------------------------------------------------------------
# one error class for a foreign format tag


def test_foreign_tag_is_unsupported_version(tmp_path):
    corpus.write_corpus(corpus.build_surrogate(2, 4, seed=0), tmp_path / "c")
    neural.save_network(neural.Network([neural.Tanh()], (3,)), tmp_path / "n")
    record = mc.run(mc.McConfig(count_per_regime=1, dim=8, t_in=40,
                                t_out=40))[:1]
    mc.write_records(record, tmp_path / "r.ndjson")
    cases = [
        (tmp_path / "c" / "manifest.json", "format", corpus.read_corpus,
         tmp_path / "c"),
        (tmp_path / "n" / "model.json", "format", neural.load_network,
         tmp_path / "n"),
        (tmp_path / "r.ndjson", "schema", mc.read_records,
         tmp_path / "r.ndjson"),
    ]
    for path, key, read, arg in cases:
        doc = json.loads(path.read_text())
        doc[key] = "X"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(UnsupportedVersion, match=f"unsupported .*{key}"):
            read(arg)
    assert cli.main(["corpus", "inspect", str(tmp_path / "c")]) == 3


@pytest.mark.parametrize("key, value", [("format", "NNCK2"), ("version", 2)])
def test_foreign_nnck_checkpoint_exits_3(tmp_path, capsys, key, value):
    ckpt = tmp_path / "ckpt"
    gan.save_checkpoint(gan.build(gan.GanConfig()), ckpt)
    path = ckpt / "generator" / "model.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    with pytest.raises(UnsupportedVersion):
        gan.load_checkpoint(ckpt)
    assert cli.main(["generate", "--ckpt", str(ckpt), "--regime", "rally",
                     "--count", "1", "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith(
        f"error: data: unsupported model.json {key} {value!r}")


# ---------------------------------------------------------------------------
# fuzzing: each reader returns or raises CorruptData / UnsupportedVersion


FORMATS = ("ecorp", "nnck", "gan", "mc")


@pytest.fixture(scope="module")
def formats(tmp_path_factory):
    """A freshly written directory of each format, and its reader."""
    root = tmp_path_factory.mktemp("formats")
    corpus.write_corpus(corpus.build_surrogate(2, 4, seed=0), root / "ecorp")
    g = np.random.Generator(np.random.PCG64(0))
    neural.save_network(neural.Network([
        neural.Dense(6, 32, g), neural.LeakyReLU(0.2),
        neural.Reshape((2, 4, 4)), neural.Conv2D(2, 3, 3, 1, 1, g),
        neural.ConvTranspose2D(3, 1, 4, 2, 1, g), neural.Flatten(),
        neural.Tanh(),
    ], (6,)), root / "nnck", seed=1, step=2)
    gan.save_checkpoint(gan.build(gan.GanConfig()), root / "gan")
    (root / "mc").mkdir()
    mc.write_records(mc.run(mc.McConfig(count_per_regime=1, dim=8, t_in=40,
                                        t_out=40))[:1],
                     root / "mc" / "records.ndjson")
    return {
        "ecorp": (root / "ecorp", corpus.read_corpus),
        "nnck": (root / "nnck", neural.load_network),
        "gan": (root / "gan", gan.load_checkpoint),
        "mc": (root / "mc", lambda d: mc.read_records(d / "records.ndjson")),
    }


def _read_edited(root, read, path, data):
    """Read ``root`` while its file at ``path`` holds ``data``; the reader
    must return or raise a data error.  The file is restored after."""
    pristine = path.read_bytes()
    path.write_bytes(data)
    try:
        read(root)
    except (CorruptData, UnsupportedVersion):
        pass
    finally:
        path.write_bytes(pristine)


def _paths(node, path=()):
    """The path to ``node`` and to every value inside it."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


DELETE = object()


def _edited(doc, path, value):
    """``doc`` as JSON bytes, with ``value`` at ``path``, or with the key
    at ``path`` deleted when ``value`` is ``DELETE``."""
    if not path:
        return (json.dumps(value) + "\n").encode()
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return (json.dumps(doc) + "\n").encode()


@pytest.mark.parametrize("fmt", FORMATS)
def test_each_key_deleted_or_value_replaced(formats, fmt):
    """Every single edit of a JSON file: each key deleted, and each value
    replaced by each of a few values of other types."""
    root, read = formats[fmt]
    for path in sorted(root.rglob("*json")):  # .json, and .ndjson of one line
        doc = json.loads(path.read_bytes())
        for where in _paths(doc):
            parent = doc
            for key in where[:-1]:
                parent = parent[key]
            edits = [None, 0, -1, 10**9, "x", [], {}]
            if where and isinstance(parent, dict):
                edits.append(DELETE)
            for value in edits:
                _read_edited(root, read, path, _edited(doc, where, value))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6,
)


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_file_raises_only_data_errors(formats, fmt, data):
    """One random edit: any value of a JSON file replaced by any JSON
    value, or any file truncated or with one byte flipped."""
    root, read = formats[fmt]
    path = data.draw(st.sampled_from(
        sorted(p for p in root.rglob("*") if p.is_file())))
    content = path.read_bytes()
    if path.name.endswith("json") and data.draw(st.booleans()):
        doc = json.loads(content)
        where = data.draw(st.sampled_from(list(_paths(doc))))
        content = _edited(doc, where, data.draw(json_values))
    else:
        i = data.draw(st.integers(0, len(content) - 1))
        flip = data.draw(st.integers(0, 255))  # 0: truncate at i
        content = (content[:i] + bytes([content[i] ^ flip]) + content[i + 1:]
                   if flip else content[:i])
    _read_edited(root, read, path, content)


# ---------------------------------------------------------------------------
# config sections: one reader, and each config checks itself


class TestConfig:
    def test_builds_the_class(self):
        assert checked.config(mc.McConfig, {"dim": 8, "t_in": 10}, "x") == (
            mc.McConfig(dim=8, t_in=10))

    @pytest.mark.parametrize("obj, required, message", [
        ([8], (), "x must be a JSON object"),
        ({"dim": 8}, ("dim", "seed"), r"x lacks \['seed'\]"),
        ({"dim": 8, "regimes": [], "b": 1}, (),
         r"x holds unknown keys \['b', 'regimes'\]"),
        ({"dim": 8, "seed": 0.5}, (), "x: seed must be an integer, not 0.5"),
        ({"count_per_regime": 0}, (),
         "x: count_per_regime must be an integer >= 1, not 0"),
    ], ids=["not-object", "missing", "unknown", "refused-type",
            "refused-range"])
    def test_refusals_name_the_section(self, obj, required, message):
        with pytest.raises(ConfigError, match=message):
            checked.config(mc.McConfig, obj, "x", required=required)
        with pytest.raises(CorruptData, match=message):
            checked.config(mc.McConfig, obj, "x", required=required,
                           error=CorruptData)


FIELDS = sorted({*inspect.signature(gan.GanConfig).parameters,
                 *inspect.signature(mc.McConfig).parameters, "unknown"})
config_values = (
    st.integers(-10**400, 10**400) | st.integers(-3, 40)
    | st.floats() | st.booleans() | st.none() | st.text(max_size=4)
    | st.sampled_from(["dense", "conv"]) | st.lists(st.integers(), max_size=2)
)


@pytest.mark.parametrize("cls", [gan.GanConfig, mc.McConfig])
@settings(max_examples=300, derandomize=True, deadline=None)
@given(obj=st.dictionaries(st.sampled_from(FIELDS), config_values,
                           max_size=4))
def test_fuzzed_config_builds_or_raises_config_error(cls, obj):
    """Any object over the fields of both configs and one unknown key
    either builds the config or raises ``ConfigError``: never a
    ``TypeError``, ``OverflowError`` or ``ValueError``."""
    try:
        config = checked.config(cls, obj, "x")
    except ConfigError:
        return
    assert isinstance(config, cls)


# ---------------------------------------------------------------------------
# guard: readers stay on the shared path

# (module, stripped source line) pairs allowed to read a file directly
ALLOWED_READS = set()
_READ = re.compile(r"(?<!checked)\.read_(bytes|text)\(|json\.loads?\(|"
                   r"\bopen\((?![^)]*[\"'][wax]b?\+?[\"'])|np\.(load|fromfile)\(")


def test_every_reader_uses_the_checked_module():
    found = [
        (path.name, line.strip())
        for path in sorted(SRC.glob("*.py")) if path.name != "checked.py"
        for line in path.read_text().splitlines()
        if _READ.search(line) and (path.name, line.strip()) not in ALLOWED_READS
    ]
    assert found == []


def test_guard_sees_direct_reads():
    for line in ('json.loads(p.read_text())', 'Path(p).read_bytes()',
                 'with open(path) as fh:', 'open(p, "rb")', 'np.load(p)'):
        assert _READ.search(line), line
    for line in ('checked.read_bytes(p)', 'open(p, "w")', 'json.dumps(x)',
                 "(d / 'x').write_text(s)"):
        assert not _READ.search(line), line
