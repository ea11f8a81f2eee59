"""Registry of every row of the paper's Tables 1 and 2.

For each circuit the paper lists the test-set size and four
compression rates.  The authors' exact test sets are unpublished, so
the reproduction generates synthetic test sets with the *same size*
(``n_patterns × n_inputs``, matching the paper's "test set size"
column bit-for-bit) and a don't-care density calibrated so the 9C
baseline reproduces the paper's 9C column (see
:mod:`repro.testdata.calibration`).

The per-circuit input widths below are the standard ISCAS-85 PI
counts and ISCAS-89 full-scan widths (PIs + flip-flops); every one of
them divides the paper's test-set size exactly (path-delay rows use
``2·n`` per pattern since tests are vector pairs), which cross-checks
both the widths and the transcription of the table.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

__all__ = [
    "PaperRow",
    "TABLE1_STUCK_AT",
    "TABLE2_PATH_DELAY",
    "row_by_name",
    "rows_by_name",
]


@dataclass(frozen=True)
class PaperRow:
    """One row of Table 1 or Table 2.

    ``published`` maps column name → compression rate in percent.
    ``pattern_bits`` is the width of one pattern in the test-set
    string: ``n`` for stuck-at rows, ``2·n`` for path-delay rows
    (vector pairs).
    """

    circuit: str
    test_set_bits: int
    pattern_bits: int
    published: dict[str, float]

    def __post_init__(self) -> None:
        if self.test_set_bits % self.pattern_bits:
            raise ValueError(
                f"{self.circuit}: size {self.test_set_bits} is not a "
                f"multiple of pattern width {self.pattern_bits}"
            )

    @property
    def n_patterns(self) -> int:
        """T — number of test patterns (vector pairs for path delay)."""
        return self.test_set_bits // self.pattern_bits


def _stuck_at(circuit, bits, width, nine_c, nine_c_hc, ea, ea_best):
    return PaperRow(
        circuit=circuit,
        test_set_bits=bits,
        pattern_bits=width,
        published={
            "9C": nine_c,
            "9C+HC": nine_c_hc,
            "EA": ea,
            "EA-Best": ea_best,
        },
    )


def _path_delay(circuit, bits, width, nine_c, nine_c_hc, ea1, ea2):
    return PaperRow(
        circuit=circuit,
        test_set_bits=bits,
        pattern_bits=2 * width,
        published={
            "9C": nine_c,
            "9C+HC": nine_c_hc,
            "EA1": ea1,
            "EA2": ea2,
        },
    )


# Table 1: stuck-at test sets (39 circuits, sorted by test-set size).
TABLE1_STUCK_AT: tuple[PaperRow, ...] = (
    _stuck_at("s349", 624, 24, 23.0, 30.0, 54.2, 55.8),
    _stuck_at("s344", 624, 24, 25.0, 33.0, 51.8, 55.8),
    _stuck_at("s298", 629, 17, 19.0, 27.0, 45.2, 51.2),
    _stuck_at("s208", 722, 19, 26.0, 32.0, 47.8, 50.4),
    _stuck_at("s400", 984, 24, 29.0, 36.0, 54.4, 56.4),
    _stuck_at("s382", 1008, 24, 29.0, 36.0, 52.0, 54.2),
    _stuck_at("s386", 1157, 13, 0.0, 13.0, 30.4, 30.6),
    _stuck_at("s444", 1176, 24, 40.0, 43.0, 54.4, 57.8),
    _stuck_at("c6288", 1216, 32, 8.0, 19.0, 17.6, 20.4),
    _stuck_at("s510", 1850, 25, 42.0, 45.0, 57.6, 57.6),
    _stuck_at("c432", 1944, 36, 26.0, 36.0, 49.2, 50.4),
    _stuck_at("s526", 1944, 24, 25.0, 29.0, 46.4, 46.4),
    _stuck_at("s1494", 2324, 14, -1.0, 11.0, 23.0, 28.9),
    _stuck_at("s420", 2380, 34, 53.0, 55.0, 54.4, 56.2),
    _stuck_at("s1488", 2436, 14, 2.0, 15.0, 25.6, 30.0),
    _stuck_at("s832", 3404, 23, 35.0, 38.0, 43.8, 43.8),
    _stuck_at("s820", 3496, 23, 31.0, 35.0, 42.8, 43.4),
    _stuck_at("c499", 3854, 41, 43.0, 51.0, 45.0, 51.6),
    _stuck_at("s713", 4104, 54, 51.0, 52.0, 61.4, 61.8),
    _stuck_at("s641", 4212, 54, 51.0, 52.0, 60.2, 62.2),
    _stuck_at("c880", 4680, 60, 40.0, 42.0, 47.8, 49.8),
    _stuck_at("c1908", 4950, 33, -2.0, 10.0, 18.4, 19.0),
    _stuck_at("s953", 5220, 45, 51.0, 53.0, 61.6, 63.2),
    _stuck_at("c1355", 5289, 41, 38.0, 45.0, 40.8, 44.8),
    _stuck_at("s1196", 6016, 32, 34.0, 38.0, 46.2, 46.2),
    _stuck_at("s1238", 6240, 32, 34.0, 37.0, 44.0, 45.8),
    _stuck_at("s1423", 8463, 91, 59.0, 59.0, 61.0, 61.6),
    _stuck_at("s838", 8509, 67, 67.0, 68.0, 66.2, 68.6),
    _stuck_at("c3540", 10350, 50, 36.0, 39.0, 43.8, 44.2),
    _stuck_at("c2670", 33086, 233, 70.0, 70.0, 70.4, 70.6),
    _stuck_at("c5315", 33108, 178, 65.0, 65.0, 66.2, 67.0),
    _stuck_at("c7552", 60030, 207, 63.0, 64.0, 63.2, 63.2),
    _stuck_at("s5378", 71262, 214, 73.0, 73.0, 76.8, 76.8),
    _stuck_at("s9234", 118560, 247, 75.0, 75.0, 76.2, 76.4),
    _stuck_at("s35932", 133988, 1763, 71.0, 71.0, 73.8, 73.8),
    _stuck_at("s15850", 305500, 611, 80.0, 80.0, 83.0, 83.0),
    _stuck_at("s13207", 410200, 700, 83.0, 83.0, 85.8, 85.9),
    _stuck_at("s38584", 1250256, 1464, 82.0, 82.0, 86.2, 86.2),
    _stuck_at("s38417", 2068352, 1664, 84.0, 84.0, 87.0, 87.9),
)

# Table 2: path-delay test sets (29 circuits; patterns are vector pairs).
TABLE2_PATH_DELAY: tuple[PaperRow, ...] = (
    _path_delay("s27", 448, 7, -5.0, 9.0, 46.2, 51.6),
    _path_delay("s298", 6018, 17, 41.0, 44.0, 48.9, 54.2),
    _path_delay("s386", 6032, 13, 8.0, 19.0, 24.7, 26.0),
    _path_delay("s208", 7524, 19, 40.0, 43.0, 43.5, 46.6),
    _path_delay("s444", 14544, 24, 49.0, 52.0, 55.6, 55.8),
    _path_delay("s382", 16272, 24, 50.0, 55.0, 58.0, 59.2),
    _path_delay("s400", 16320, 24, 50.0, 55.0, 57.1, 58.2),
    _path_delay("s526", 17088, 24, 44.0, 45.0, 59.3, 60.0),
    _path_delay("s349", 17712, 24, 41.0, 44.0, 57.0, 61.2),
    _path_delay("s344", 17712, 24, 41.0, 44.0, 57.0, 60.8),
    _path_delay("s510", 18450, 25, 45.0, 47.0, 48.9, 52.6),
    _path_delay("s1494", 20300, 14, 1.0, 15.0, 19.9, 25.0),
    _path_delay("s1488", 20664, 14, 2.0, 15.0, 20.5, 24.6),
    _path_delay("s820", 21850, 23, 34.0, 38.0, 38.2, 42.4),
    _path_delay("s832", 22448, 23, 34.0, 38.0, 38.4, 42.4),
    _path_delay("s420", 43588, 34, 58.0, 59.0, 57.9, 51.2),
    _path_delay("s713", 56376, 54, 61.0, 63.0, 64.6, 69.0),
    _path_delay("s953", 75510, 45, 57.0, 59.0, 59.4, 62.8),
    _path_delay("s641", 94500, 54, 60.0, 62.0, 62.6, 66.2),
    _path_delay("s1196", 95616, 32, 40.0, 42.0, 46.9, 46.4),
    _path_delay("s1238", 96128, 32, 39.0, 41.0, 46.3, 45.8),
    _path_delay("s838", 269808, 66, 70.0, 70.0, 69.3, 64.2),
    _path_delay("s1423", 2321592, 91, 49.0, 50.0, 51.8, 52.8),
    _path_delay("s5378", 3625588, 214, 78.0, 78.0, 77.5, 81.2),
    _path_delay("s9234", 4666324, 247, 81.0, 82.0, 80.1, 83.2),
    _path_delay("s35932", 7108416, 1763, 87.0, 87.0, 86.7, 91.0),
    _path_delay("s13207", 10234000, 700, 85.0, 85.0, 85.9, 89.6),
    _path_delay("s15850", 36502362, 611, 84.0, 84.0, 82.7, 86.3),
    _path_delay("s38584", 81190512, 1464, 87.0, 87.0, 67.5, 90.0),
)

# Paper-reported column averages (last line of each table).
TABLE1_AVERAGES = {"9C": 42.6, "9C+HC": 46.8, "EA": 54.2, "EA-Best": 55.9}
TABLE2_AVERAGES = {"9C": 48.7, "9C+HC": 52.1, "EA1": 55.6, "EA2": 58.6}


def row_by_name(table: tuple[PaperRow, ...], circuit: str) -> PaperRow:
    """Look up a row by circuit name.

    >>> row_by_name(TABLE1_STUCK_AT, "s349").test_set_bits
    624
    """
    for row in table:
        if row.circuit == circuit:
            return row
    raise KeyError(f"circuit {circuit!r} not in table")


def rows_by_name(
    table: tuple[PaperRow, ...], circuits: Sequence[str]
) -> list[PaperRow]:
    """The rows of ``table`` named in ``circuits``, in table order.

    Every name must be a circuit of the table: a typo raises
    ``ValueError`` naming it instead of silently shrinking the run.

    >>> [row.circuit for row in rows_by_name(TABLE1_STUCK_AT, ["s349", "s298"])]
    ['s298', 's349']
    """
    known = [row.circuit for row in table]
    unknown = [name for name in dict.fromkeys(circuits) if name not in known]
    if unknown:
        raise ValueError(
            f"unknown circuit(s) {' '.join(unknown)}; "
            f"choose from {', '.join(known)}"
        )
    wanted = set(circuits)
    return [row for row in table if row.circuit in wanted]
