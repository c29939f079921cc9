import pytest

from stoplemma.corpus import load_corpus
from stoplemma.freq import count_words


def make_corpus(tmp_path, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


class TestLoadCorpus:
    def test_documents_in_lexicographic_order(self, tmp_path):
        make_corpus(tmp_path, {"b.txt": "दो", "a.txt": "एक"})
        corpus = load_corpus(tmp_path)
        assert [d.path for d in corpus.documents] == ["a.txt", "b.txt"]

    def test_invalid_utf8_names_file_and_offset(self, tmp_path):
        # a document is decoded as it is counted; the offset counts from the
        # file's first byte, a leading BOM included
        for name, data in [("plain", "अब".encode() + b"\xff"),
                           ("bom", b"\xef\xbb\xbf" + "अ".encode() + b"\xff")]:
            (tmp_path / name).mkdir()
            (tmp_path / name / "a.txt").write_bytes(data)
            with pytest.raises(ValueError, match=r"a\.txt:1: invalid UTF-8 at byte offset 6$"):
                count_words(load_corpus(tmp_path / name))

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            load_corpus(tmp_path / "nope")

    def test_path_naming_a_file(self, tmp_path):
        make_corpus(tmp_path, {"a.txt": "क"})
        with pytest.raises(ValueError, match=r"corpus path is not a directory: .*a\.txt$"):
            load_corpus(tmp_path / "a.txt")

    def test_zero_documents(self, tmp_path):
        with pytest.raises(ValueError, match="no .txt files"):
            load_corpus(tmp_path)

    def test_bom_stripped(self, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"\xef\xbb\xbf" + "घर".encode())
        assert count_words(load_corpus(tmp_path)).counts == {"घर": 1}

    def test_loading_is_deterministic(self, tmp_path):
        make_corpus(tmp_path, {"a.txt": "एक", "b.txt": "दो"})
        assert load_corpus(tmp_path) == load_corpus(tmp_path)
