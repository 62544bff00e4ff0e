"""The in-place pairwise butterfly that ``witt._butterfly`` replaced, kept
only as a test oracle: one Python call of ``op`` per pair and bit, where
the library runs each stage as two C-level maps in constant geometry."""


def _butterfly(rows: list, op) -> None:
    """In place over 2^g rows: for each bit h and each index i without h,
    replace the pair (rows[i], rows[i | h]) by op(rows[i], rows[i | h])."""
    h = 1
    while h < len(rows):
        for i in range(len(rows)):
            if not i & h:
                rows[i], rows[i | h] = op(rows[i], rows[i | h])
        h <<= 1
