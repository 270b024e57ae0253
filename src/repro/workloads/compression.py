"""The compress / uncompress workload pair.

One binary, two programs (mode byte selects): the paper's point is that the
two modes share no branch behaviour.  The uncompress datasets are the MF
compress program's own output on the plain datasets — the same code that
will decompress them — so the pair is exact (a tier-1 test reruns compress
under every compile configuration and compares).

The "compiled image" datasets (cmprss, spice) mirror the paper's use of
Multiflow executable images as compression inputs.  Each is the lowered
code of compress.mf or spice.mf, serialized as 16-bit little-endian fields
and cut at 9,000 bytes, as compiled at commit 2c2fb48.  Like the paper's
images they are fixed files, so no compiler change can move these inputs.
The images and the five LZW streams live in ``data/`` without their mode
byte; building the workloads compiles and runs nothing.
"""
from __future__ import annotations

from typing import List

from repro.workloads import sourcegen
from repro.workloads.base import (
    C,
    Dataset,
    Workload,
    load_data,
    load_program_source,
)


def _plain_datasets() -> List[Dataset]:
    return [
        Dataset(
            "cmprssc",
            "C source of the compress program itself",
            load_program_source("compress.mf").encode(),
        ),
        Dataset(
            "cmprss",
            "compiled image of compress (binary data)",
            load_data("cmprss.image"),
        ),
        Dataset(
            "long",
            "reference text data (English-like)",
            sourcegen.english_text(5, 2600).encode(),
        ),
        Dataset(
            "spicef",
            "FORTRAN-flavoured source of spice",
            sourcegen.fortran_module(900, functions=40).encode(),
        ),
        Dataset(
            "spice",
            "compiled image of spice (binary data)",
            load_data("spice.image"),
        ),
    ]


def build_compress() -> Workload:
    datasets = [
        Dataset(ds.name, ds.description, b"C" + ds.data)
        for ds in _plain_datasets()
    ]
    return Workload(
        name="compress",
        category=C,
        description="UNIX compress analog: 12-bit LZW, compression mode",
        source=load_program_source("compress.mf"),
        datasets=datasets,
    )


def build_uncompress() -> Workload:
    datasets = [
        Dataset(
            ds.name,
            f"{ds.description} (LZW-compressed)",
            b"D" + load_data(f"{ds.name}.lzw"),
        )
        for ds in _plain_datasets()
    ]
    return Workload(
        name="uncompress",
        category=C,
        description="UNIX compress analog: 12-bit LZW, decompression mode "
        "(same binary as compress, mode switch set to decompress)",
        source=load_program_source("compress.mf"),
        datasets=datasets,
    )
