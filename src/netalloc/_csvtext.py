"""The one CSV row formatter of the trace and summary writers, and its helper process.

:func:`write_rows` formats blocks of about :data:`CSV_BLOCK_CELLS` cells with
one bytes ``%``-template per row and writes the bytes to a binary file;
``b"%.17g" % x`` gives the bytes of ``format(x, ".17g")``, and blocking keeps
peak memory independent of the number of rows.

This module imports neither numpy nor the rest of the package, so that
:mod:`netalloc.simulator` can run this same file as a helper process, which
starts in about 12 ms where ``import numpy`` alone takes about 230 ms::

    python -I -S _csvtext.py PARENT TEMPLATE_BYTES K0 ROWS CELLS COLS < SRC > DST

``SRC``, a regular file, holds the template's ``TEMPLATE_BYTES`` bytes and
then each of the ``COLS`` columns as ``ROWS * CELLS`` native float64 values
(what ``ndarray.tofile`` writes). The helper writes rows
``K0 .. K0 + ROWS - 1`` to ``DST``, reading its input one block at a time.
Before each block it checks that its parent is still the process ``PARENT``
and exits with status 1 otherwise, so a helper whose parent was killed stops
within one block.
"""

import os
import sys

# Cells (one node at one round) formatted or summed per block.
CSV_BLOCK_CELLS = 4096


def row_blocks(rows, width):
    """``(r0, r1)`` row ranges of about :data:`CSV_BLOCK_CELLS` cells of ``width`` columns."""
    step = max(1, CSV_BLOCK_CELLS // width)
    for r0 in range(0, rows, step):
        yield r0, min(rows, r0 + step)


def write_rows(fh, template, k0, rows, cells, read):
    """Write ``template`` formatted once per row ``k0 .. k0 + rows - 1`` to ``fh``.

    ``template`` holds one line per cell of a row, each formatting the row's
    ``k`` and then that cell of every column. ``read(r0, r1)`` returns the
    columns of rows ``k0 + r0 .. k0 + r1 - 1`` as flat lists of
    ``(r1 - r0) * cells`` floats. A block of rows is formatted by one ``%`` on
    the template repeated, with the arguments interleaved by slice assignment.
    """
    for r0, r1 in row_blocks(rows, cells):
        cols = read(r0, r1)
        stride = len(cols) + 1
        args = [0] * ((r1 - r0) * cells * stride)
        ks = range(k0 + r0, k0 + r1)
        if cells > 1:  # each k once per cell of its row
            ks = []
            for k in range(k0 + r0, k0 + r1):
                ks += [k] * cells
        args[0::stride] = ks
        for j, col in enumerate(cols, start=1):
            args[j::stride] = col
        fh.write(template * (r1 - r0) % tuple(args))


def _main(argv):
    """Format rows ``K0 .. K0 + ROWS - 1`` from standard input to standard output."""
    parent, template_bytes, k0, rows, cells, cols = map(int, argv)
    template = os.pread(0, template_bytes, 0)
    col_bytes = rows * cells * 8

    def read(r0, r1):
        if os.getppid() != parent:
            sys.exit(1)
        size, offset = (r1 - r0) * cells * 8, template_bytes + r0 * cells * 8
        return [memoryview(os.pread(0, size, offset + j * col_bytes)).cast("d").tolist() for j in range(cols)]

    with open(1, "wb", closefd=False) as fh:
        write_rows(fh, template, k0, rows, cells, read)


if __name__ == "__main__":
    _main(sys.argv[1:])
