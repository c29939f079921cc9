import pytest

from stoplemma.corpus import (
    CorpusError,
    DocumentMeta,
    load_corpus,
    load_metadata,
    metadata_summary,
)

HEADER = "file\ttitle\tauthor\tgender\tstate\tyear\n"


def make_corpus(tmp_path, files, metadata=None):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    if metadata is not None:
        (tmp_path / "metadata.tsv").write_text(metadata, encoding="utf-8")
    return tmp_path


class TestLoadCorpus:
    def test_documents_in_lexicographic_order(self, tmp_path):
        make_corpus(tmp_path, {"b.txt": "दो", "a.txt": "एक"})
        corpus = load_corpus(tmp_path, id="t")
        assert [d.path for d in corpus.documents] == ["a.txt", "b.txt"]

    def test_invalid_utf8_names_file_and_offset(self, tmp_path):
        # the offset counts from the file's first byte, a leading BOM included
        for name, data in [("plain", "अब".encode() + b"\xff"),
                           ("bom", b"\xef\xbb\xbf" + "अ".encode() + b"\xff")]:
            (tmp_path / name).mkdir()
            (tmp_path / name / "a.txt").write_bytes(data)
            with pytest.raises(CorpusError, match=r"a\.txt:1: invalid UTF-8 at byte offset 6$"):
                load_corpus(tmp_path / name, id="t")

    def test_partial_metadata(self, tmp_path):
        make_corpus(
            tmp_path,
            {"a.txt": "क", "b.txt": "ख", "c.txt": "ग"},
            metadata=HEADER + "a.txt\tशीर्षक\tलेखक\tmale\tबिहार\t1950\n"
                              "b.txt\t\t\tfemale\t\t1940\n",
        )
        metas = load_metadata(tmp_path)
        assert metas["a.txt"].gender == "male" and metas["a.txt"].year == 1950
        assert metas["b.txt"].gender == "female" and metas["b.txt"].era == "pre_independence"
        assert "c.txt" not in metas

    def test_metadata_quote_is_literal(self, tmp_path):
        make_corpus(
            tmp_path,
            {"a.txt": "क", "b.txt": "ख"},
            metadata=HEADER + 'a.txt\t"कथा\tलेखक\tmale\tबिहार\t1950\n'
                              "b.txt\tयात्रा\t\tfemale\t\t1960\n",
        )
        metas = load_metadata(tmp_path)
        assert metas["a.txt"] == DocumentMeta(title='"कथा', author="लेखक", gender="male",
                                              native_state="बिहार", year=1950)
        assert metas["b.txt"] == DocumentMeta(title="यात्रा", gender="female", year=1960)

    def test_metadata_lines_end_as_in_record_files(self, tmp_path):
        # \r\n and \r end a line; U+2028 and U+0085 do not
        make_corpus(tmp_path, {"a.txt": "क"}, metadata=HEADER.replace("\n", "\r\n")
                    + "a.txt\tक\u2028ख\u0085ग\t\tmale\t\t1950\rb.txt\t\t\tfemale\t\t\r\n")
        metas = load_metadata(tmp_path)
        assert metas["a.txt"] == DocumentMeta(title="क\u2028ख\u0085ग", gender="male", year=1950)
        assert metas["b.txt"] == DocumentMeta(gender="female")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(CorpusError, match="not found"):
            load_corpus(tmp_path / "nope", id="t")

    def test_path_naming_a_file(self, tmp_path):
        make_corpus(tmp_path, {"a.txt": "क"})
        with pytest.raises(CorpusError, match=r"corpus path is not a directory: .*a\.txt$"):
            load_corpus(tmp_path / "a.txt", id="t")

    def test_zero_documents(self, tmp_path):
        with pytest.raises(CorpusError, match="no .txt files"):
            load_corpus(tmp_path, id="t")

    def test_bom_stripped(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"\xef\xbb\xbf" + "घर".encode())
        corpus = load_corpus(tmp_path, id="t")
        assert corpus.documents[0].raw_text == "घर"

    def test_malformed_metadata_header(self, tmp_path):
        make_corpus(tmp_path, {"a.txt": "क"}, metadata="file\ttitle\na.txt\tx\n")
        with pytest.raises(CorpusError, match="header"):
            load_metadata(tmp_path)

    def test_metadata_file_listed_twice(self, tmp_path):
        make_corpus(tmp_path, {"a.txt": "क"},
                    metadata=HEADER + "a.txt\tx\ty\tmale\tz\t1950\n\n"
                    + "a.txt\tx\ty\tfemale\tz\t1960\n")
        with pytest.raises(CorpusError, match=r"metadata\.tsv:4: file 'a\.txt' already listed on line 2"):
            load_metadata(tmp_path)

    def test_loading_is_deterministic(self, tmp_path):
        make_corpus(tmp_path, {"a.txt": "एक", "b.txt": "दो"})
        assert load_corpus(tmp_path, id="t") == load_corpus(tmp_path, id="t")


class TestDocumentMeta:
    def test_era_follows_year(self):
        assert DocumentMeta(year=1946).era == "pre_independence"
        assert DocumentMeta(year=1947).era == "post_independence"
        assert DocumentMeta().era == "unknown"

    def test_bad_gender_rejected(self):
        with pytest.raises(CorpusError):
            DocumentMeta(gender="m")


class TestMetadataSummary:
    def test_all_unknown(self, tmp_path):
        make_corpus(tmp_path, {f"{i}.txt": "क" for i in range(5)})
        summary = metadata_summary(load_corpus(tmp_path, id="t"), load_metadata(tmp_path))
        assert summary.gender_counts == {"unknown": 5}
        assert summary.female_fraction == 0

    def test_female_fraction(self, tmp_path):
        meta = HEADER + "".join(
            f"{i}.txt\t\t\t{g}\t\t\n" for i, g in enumerate(["female", "male", "male", "male"])
        )
        make_corpus(tmp_path, {f"{i}.txt": "क" for i in range(4)}, metadata=meta)
        summary = metadata_summary(load_corpus(tmp_path, id="t"), load_metadata(tmp_path))
        assert summary.female_fraction == 0.25

    def test_counts_sum_to_total(self, tmp_path):
        meta = HEADER + ("0.txt\t\t\tfemale\tबिहार\t1920\n"
                         "1.txt\t\t\tmale\t\t1999\n")
        make_corpus(tmp_path, {f"{i}.txt": "क" for i in range(3)}, metadata=meta)
        summary = metadata_summary(load_corpus(tmp_path, id="t"), load_metadata(tmp_path))
        for counts in (summary.gender_counts, summary.state_counts, summary.era_counts):
            assert sum(counts.values()) == summary.total_docs == 3

    def test_percentage_scale_fixture(self, tmp_path):
        # ~1000 docs with 4.84% female-authored, the ratio reported for the
        # aesthetics corpus: 48 of 992 gives 0.04839
        rows = ["file\ttitle\tauthor\tgender\tstate\tyear"]
        files = {}
        for i in range(992):
            gender = "female" if i < 48 else "male"
            rows.append(f"{i:04}.txt\t\t\t{gender}\t\t")
            files[f"{i:04}.txt"] = "क"
        make_corpus(tmp_path, files, metadata="\n".join(rows) + "\n")
        summary = metadata_summary(load_corpus(tmp_path, id="t"), load_metadata(tmp_path))
        assert summary.female_fraction == pytest.approx(0.0484, abs=1e-4)
