"""Exact run costs: each dataset's instruction count under the paper's
configuration.

Runs are deterministic, so the work a run will do is known before it
starts.  ``WorkloadRunner.run_many`` submits its process pool's runs
longest first by these counts, so a long run does not start after the
short ones and leave one worker finishing it alone.
``tests/test_parallel.py`` pins every entry against a real run.
"""
from __future__ import annotations

from typing import Dict, Tuple

#: (workload, dataset) -> instructions executed under ``RunConfig()``.
PAPER_INSTRUCTIONS: Dict[Tuple[str, str], int] = {
    ("spice2g6", "circuit1"): 32_028,
    ("spice2g6", "circuit2"): 4_194,
    ("spice2g6", "circuit3"): 94_366,
    ("spice2g6", "circuit4"): 129_419,
    ("spice2g6", "circuit5"): 193_989,
    ("spice2g6", "add_bjt"): 345_217,
    ("spice2g6", "add_fet"): 334_417,
    ("spice2g6", "greysmall"): 113_647,
    ("spice2g6", "greybig"): 1_349_092,
    ("doduc", "tiny"): 114_146,
    ("doduc", "small"): 281_268,
    ("doduc", "ref"): 528_409,
    ("nasa7", "default"): 7_487_645,
    ("matrix300", "default"): 5_873_126,
    ("fpppp", "4atoms"): 234_265,
    ("fpppp", "8atoms"): 1_083_842,
    ("tomcatv", "default"): 4_535_400,
    ("lfk", "default"): 460_808,
    ("gcc", "module1"): 449_384,
    ("gcc", "module2"): 773_740,
    ("gcc", "module3"): 453_598,
    ("gcc", "module4"): 763_173,
    ("gcc", "module5"): 1_428_673,
    ("gcc", "module6"): 896_930,
    ("espresso", "bca"): 4_815_635,
    ("espresso", "cps"): 5_896_497,
    ("espresso", "ti"): 3_083_109,
    ("espresso", "tial"): 5_599_872,
    ("li", "5queens"): 2_309_329,
    ("li", "6queens"): 10_289_454,
    ("li", "kittyv"): 8_369_513,
    ("li", "sieve1"): 2_489_414,
    ("eqntott", "add4"): 1_133_339,
    ("eqntott", "add5"): 8_145_766,
    ("eqntott", "add6"): 9_158_480,
    ("eqntott", "intpri"): 5_726_492,
    ("compress", "cmprssc"): 284_460,
    ("compress", "cmprss"): 155_302,
    ("compress", "long"): 1_781_767,
    ("compress", "spicef"): 618_740,
    ("compress", "spice"): 739_401,
    ("uncompress", "cmprssc"): 181_571,
    ("uncompress", "cmprss"): 101_339,
    ("uncompress", "long"): 753_333,
    ("uncompress", "spicef"): 300_161,
    ("uncompress", "spice"): 319_295,
    ("mfcom", "c_metric"): 1_742_237,
    ("mfcom", "fortran_metric"): 1_131_795,
    ("spiff", "case1"): 1_363_774,
    ("spiff", "case2"): 1_201_883,
    ("spiff", "case3"): 79_256,
}
