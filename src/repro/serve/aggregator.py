"""The aggregation core: one profile database with an epoch counter.

The aggregator is the server's state — one ``ProfileDatabase`` behind one
lock.  Every mutation advances the *epoch* under that lock; predictions
and stats report the epoch they were computed at.  The write-behind
persister takes the database's JSON form under the lock but does the
disk write outside it (through ``write_json_atomic``'s atomic rename),
so uploads are never blocked on the filesystem.

Predictions go through ``repro.prediction.combine.database_predict``,
the one summary predictor over a database: the experiments, the server
and the client's offline fallback all call it, which is what makes
"served bytes == offline bytes" true by construction rather than by
coincidence.  It is re-exported here for the service's callers.
"""
from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Tuple

from repro.prediction.combine import database_predict
from repro.profiling.branch_profile import BranchProfile
from repro.profiling.database import ProfileDatabase, write_json_atomic


class Aggregator:
    """Thread-safe profile storage with write-behind persistence.

    Safe to drive from the server's connection threads, its flush
    thread, and the benchmark harness alike: the database, the epoch and the dirty flag
    change only under one lock.  With ``persist_dir`` the database lives
    in ``<persist_dir>/profiles.json``.
    """

    def __init__(self, persist_dir: Optional[str] = None) -> None:
        self.persist_dir = persist_dir
        self._database = ProfileDatabase()
        self._lock = threading.Lock()
        self._epoch = 0
        #: Recorded since the last flush (read by the write-behind loop).
        self.dirty = False
        if persist_dir:
            os.makedirs(persist_dir, exist_ok=True)
            if os.path.exists(self._path()):
                self._database = ProfileDatabase.load(self._path())

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    # -- recording ----------------------------------------------------------

    def record_profile(
        self, program: str, dataset: str, profile: BranchProfile
    ) -> int:
        """Accumulate one uploaded profile; returns the new epoch."""
        with self._lock:
            self._database.record_profile(program, dataset, profile)
            self.dirty = True
            self._epoch += 1
            return self._epoch

    # -- queries ------------------------------------------------------------

    def predict(
        self,
        program: str,
        mode: str = "scaled",
        exclude: Optional[str] = None,
    ) -> Tuple[BranchProfile, List[str], int]:
        """Summary prediction plus the epoch it was computed at."""
        with self._lock:
            profile, datasets = database_predict(
                self._database, program, mode=mode, exclude=exclude
            )
            return profile, datasets, self._epoch

    def programs(self) -> List[str]:
        with self._lock:
            return self._database.programs()

    def datasets(self, program: str) -> List[str]:
        with self._lock:
            return self._database.datasets(program)

    def stats(self) -> Dict:
        """A JSON-ready summary of everything recorded."""
        programs = {}
        with self._lock:
            database = self._database
            for name in database.programs():
                datasets = {}
                for dataset in database.datasets(name):
                    profile = database.dataset_profile(name, dataset)
                    datasets[dataset] = {
                        "runs": profile.runs,
                        "branch_sites": len(profile),
                        "total_executed": profile.total_executed,
                    }
                programs[name] = {"datasets": datasets}
            return {"epoch": self._epoch, "programs": programs}

    # -- persistence --------------------------------------------------------

    def _path(self) -> str:
        return os.path.join(self.persist_dir, "profiles.json")

    def flush(self) -> bool:
        """Write the database to disk if it changed; returns whether it did.

        The lock covers only marking it clean and taking its JSON form;
        the write goes through a private temp file and an atomic rename,
        so a reader (or a crash) never sees a half-written database.
        """
        if not self.persist_dir:
            return False
        with self._lock:
            if not self.dirty:
                return False
            data = self._database.to_dict()
            self.dirty = False
        write_json_atomic(self._path(), data, indent=1, sort_keys=True)
        return True
