"""Byte-level regression guard: the ``schedule-verify`` JSON holds only
integers and strings, so its digest is the same on every platform. A change
to these digests changes a published artifact and must be deliberate."""

import hashlib

import pytest

from irs_cache_dof.cli import EXIT_OK, main

WORKED_EXAMPLE = "--k-t 3 --k-r 4 --n-files 12 --f-packets 12 --mu-t 1 --mu-r 1 --q-elements 6"


@pytest.mark.parametrize(
    "flags, digest",
    [
        (WORKED_EXAMPLE, "6bcecea61d3f8a22b3f91d6ba6fc1ef201568f7ee39a4481ae1c2c86a84b36c3"),
        (
            "--k-t 6 --k-r 6 --mu-t 2 --mu-r 1 --q-elements 12 --sufficient-q --regime thm2-ordered",
            "4abcdb27d263e3113b2ddf4fe78fe75ab7e7a4be321abcb3b320a279d9888f0b",
        ),
        (
            "--k-t 4 --k-r 5 --mu-t 2 --mu-r 1 --q-elements 4 --sufficient-q --regime thm2-partition",
            "44a895db509b6bb6e09d6f8b3a5ffa8f609c6a8e15f6c243ff46d0b8c4880a94",
        ),
    ],
    ids=["T1-I", "T2-II-ordered", "T2-II-partition"],
)
def test_schedule_verify_json_digest(tmp_path, flags, digest):
    out = tmp_path / "schedule.json"
    assert main(["schedule-verify", "--seed", "7", *flags.split(), "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
