import json

import numpy as np
import pytest

from corrlab import corpus
from corrlab.corpus import CorpusSource, WindowSpec
from corrlab.exceptions import (
    CorruptData,
    DegenerateColumn,
    InvalidInput,
    ParseError,
    UnsupportedVersion,
)
from corrlab.samplers import RegimeLabel


def write_returns(path, t=300, d=4, seed=0):
    g = np.random.Generator(np.random.PCG64(seed))
    data = 0.01 * g.standard_normal((t, d))
    with open(path, "w") as fh:
        fh.write(",".join(f"A{i}" for i in range(d)) + "\n")
        for row in data:
            fh.write(",".join(f"{x:.8f}" for x in row) + "\n")
    return data


class TestReadReturnsCsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "r.csv"
        data = write_returns(p)
        names, got = corpus.read_returns_csv(p)
        assert names == ["A0", "A1", "A2", "A3"]
        assert np.allclose(got, data, atol=1e-8)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,b\n0.1,0.2\n0.3\n")
        with pytest.raises(ParseError) as e:
            corpus.read_returns_csv(p)
        assert e.value.row == 2

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,b\n0.1,oops\n")
        with pytest.raises(ParseError) as e:
            corpus.read_returns_csv(p)
        assert e.value.row == 1
        assert e.value.col == 1

    def test_empty_file(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            corpus.read_returns_csv(p)

    def test_header_cells_keep_line_breaks(self, tmp_path):
        # csv owns the line splitting: a quoted newline stays in its cell,
        # and \x0c or U+2028 in a name does not end the row.
        p = tmp_path / "r.csv"
        p.write_bytes('"a\nb",c\x0cd,e\u2028f\n0.1,0.2,0.3\r\n'.encode())
        names, got = corpus.read_returns_csv(p)
        assert names == ["a\nb", "c\x0cd", "e\u2028f"]
        assert got.tolist() == [[0.1, 0.2, 0.3]]


def test_window_count_oracle():
    # T=600, window 252, step 21: floor((600-252)/21)+1 = 17
    assert corpus.window_count(600, WindowSpec(252, 21)) == 17
    assert corpus.window_count(251, WindowSpec(252, 21)) == 0
    assert corpus.window_count(252, WindowSpec(252, 21)) == 1


class TestIngest:
    def test_basic_ingest(self, tmp_path):
        p = tmp_path / "r.csv"
        write_returns(p, t=300, d=4, seed=1)
        corp = corpus.ingest_returns(p, WindowSpec(252, 21))
        assert len(corp) == corpus.window_count(300, WindowSpec(252, 21)) == 3
        assert corp.dim == 4
        assert corp.source is CorpusSource.INGESTED
        labels = corp.labels()
        assert labels.count(RegimeLabel.STRESSED) == 1
        assert labels.count(RegimeLabel.RALLY) == 1

    def test_constant_column(self, tmp_path):
        p = tmp_path / "r.csv"
        data = write_returns(p, t=260, d=4, seed=3)
        data[:, 2] = 0.0
        with open(p, "w") as fh:
            fh.write("a,b,c,d\n")
            for row in data:
                fh.write(",".join(f"{x:.8f}" for x in row) + "\n")
        with pytest.raises(DegenerateColumn) as e:
            corpus.ingest_returns(p, WindowSpec(252, 21))
        assert e.value.asset == "c"

    def test_too_short(self, tmp_path):
        p = tmp_path / "r.csv"
        write_returns(p, t=100, d=4, seed=4)
        with pytest.raises(InvalidInput):
            corpus.ingest_returns(p, WindowSpec(252, 21))


class TestSurrogate:
    def test_cardinality_and_balance(self):
        corp = corpus.build_surrogate(5, 8, seed=1)
        assert len(corp) == 15
        for regime in RegimeLabel:
            assert len(corp.matrices(regime)) == 5

    def test_deterministic(self):
        a = corpus.build_surrogate(3, 8, seed=9)
        b = corpus.build_surrogate(3, 8, seed=9)
        for x, y in zip(a.items, b.items):
            assert np.array_equal(x.matrix, y.matrix)

    def test_rejects_bad_count(self):
        with pytest.raises(InvalidInput):
            corpus.build_surrogate(0, 8)


class TestContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        corp = corpus.build_surrogate(4, 6, seed=2)
        corpus.write_corpus(corp, tmp_path / "c")
        back = corpus.read_corpus(tmp_path / "c")
        assert back.dim == corp.dim
        assert back.source is corp.source
        assert back.labels() == corp.labels()
        for a, b in zip(corp.items, back.items):
            assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_checksum_mismatch(self, tmp_path):
        corp = corpus.build_surrogate(2, 6, seed=3)
        corpus.write_corpus(corp, tmp_path / "c")
        payload = bytearray((tmp_path / "c" / "matrices.f64le").read_bytes())
        payload[0] ^= 0xFF
        (tmp_path / "c" / "matrices.f64le").write_bytes(bytes(payload))
        with pytest.raises(CorruptData):
            corpus.read_corpus(tmp_path / "c")

    def test_unsupported_version(self, tmp_path):
        corp = corpus.build_surrogate(2, 6, seed=4)
        corpus.write_corpus(corp, tmp_path / "c")
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        manifest["version"] = 99
        (tmp_path / "c" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(UnsupportedVersion):
            corpus.read_corpus(tmp_path / "c")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CorruptData):
            corpus.read_corpus(tmp_path)

    def test_size_mismatch(self, tmp_path):
        import hashlib
        corp = corpus.build_surrogate(2, 6, seed=5)
        corpus.write_corpus(corp, tmp_path / "c")
        payload = (tmp_path / "c" / "matrices.f64le").read_bytes()[:-8]
        (tmp_path / "c" / "matrices.f64le").write_bytes(payload)
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        manifest["payload_sha256"] = hashlib.sha256(payload).hexdigest()
        (tmp_path / "c" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptData):
            corpus.read_corpus(tmp_path / "c")
