import pytest

from satprecode.evaluate import ModcodTable
from satprecode.exceptions import ConfigError


def test_modcod_file_parsing_ignores_comments(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text(
        "# comment line\n"
        "0.0 1.0  # inline note\n"
        "\n"
        "3.5 2.0\n"
    )
    table = ModcodTable.from_file(path)
    assert list(table.thresholds_db) == [0.0, 3.5]
    assert table.efficiency(3.5) == 2.0


def test_modcod_file_bad_row_rejected(tmp_path):
    path = tmp_path / "table.txt"
    for row in ("0.0 1.0 extra", "abc def"):
        path.write_text(f"0.0 1.0\n{row}\n")
        with pytest.raises(ConfigError, match="table.txt:2"):
            ModcodTable.from_file(path)
