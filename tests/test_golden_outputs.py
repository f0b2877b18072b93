"""Saved files and report text, pinned byte for byte.

The README's commands run through ``cli.main`` on their fixed seeds (the
completion on the 6-vertex tree the CI smoke step uses, since the README's
100-vertex one takes minutes), plus the star certificate at 2^-17 and the
prefix-string certificate at p = 6. Every ``.graph``, ``.spanner`` and
``.completion`` file they write, and every report's reproducible text (all
above ``[timings]``), must keep its sha256. A reloaded spanner or
completion must save back to the same bytes.
"""

import hashlib
import os

import pytest

from doubling import cli, load_completion, load_spanner, save_completion, save_spanner

COMMANDS = (
    "gen --family lcp-hypercube --p 2 --output prefix.metric",
    "gen --family exponential-star --n 16 --output star.graph",
    "gen --family euclidean-random --n 100 --seed 1 --output pts.metric",
    "gen --family random-tree --n 100 --seed 1 --output tree.graph",
    "gen --family random-tree --n 6 --seed 1 --output small.graph",
    "spanner --input prefix.metric --epsilon 0.25 --output run1",
    "spanner --input pts.metric --epsilon 0.25 --output run3",
    "complete-tree --input small.graph --epsilon 0.25 --output run2",
    "audit --input star.graph --output audit",
    "dim --input prefix.metric --output dim",
    "certify-star --n 10 --epsilon 0.015625 --output star10",
    "certify-lcp --p 4 --output lcp4",
    "certify-star --n 16 --epsilon 7.62939453125e-06 --output star16",
    "certify-lcp --p 6 --output lcp6",
)

# sha256 of each file, and of each report's text above ``[timings]``
GOLDEN = {
    "audit.report": "85ef4e987c132cf056331710df2db23e99865adb2100bb7899e071bc91247e7b",
    "dim.report": "a4f2553c9edc646fecca85024c67d925aa78cb45ba31b63809fb165db622b899",
    "lcp4.report": "18916875397cb9cad79f59c36d91caae789e53e7805a913220fda40afcab927c",
    "lcp6.report": "8fe0e199e7600dedf989403d67c49d22eb0c973147f1266c411783dadb35a5d2",
    "prefix.metric": "cdee976ea03b4f38b59a4d56ac3763eaeb94d96807997c9b7cd945074b49ae32",
    "pts.metric": "fd944021dbf39822d9ca9316a9994ed53390e182a167f6b296b3ad1210673285",
    "run1.report": "5a88aa4ad1ef32a9e55bf83c990a65a1a49b2c64cbf6dc3f43145e41e6828e9c",
    "run1.spanner": "018ad8e31567ae4b02b2e07d057f227867d6645decbfb566bdda1064809ee72a",
    "run2.completion": "5953ae76dea7d2c5e92f387899717c513af39a1be8b01b6227de4e68abdefe9d",
    "run2.report": "bace12b1587475459600f28631246ae80ef5d9c2d383a098fb44cb9efab7f49f",
    "run3.report": "395dab2b8c73449d277cbe676e925cd87533b518bd4f29a149ba83e4ef2a30a7",
    "run3.spanner": "1e7a67893ea0340f2bd33d153468282ccad1f805fbb34c839983cddbc03ef9fd",
    "small.graph": "fec980327cf9ae81760dabbe9484383ee587e3e953a2d3b99b8292d4be3a8c78",
    "star.graph": "acdf964e73bf7a1125d566bc6c03aa7655d860cffd87d0bcc35e9851a1e49d34",
    "star10.report": "bec5a810087ada01ede83b3d11fa52bf5c8e5fbed6ddcc47de972ea920ba8be5",
    "star16.report": "0dd33c918fd666786cda52a0b5dc3934925883d1fc09f95d45577cab5c35beba",
    "tree.graph": "346c48b5066bcf85a09afe402904ced77876c0dc9c23f5c2d7c9dbc835e0f452",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_commands(workdir) -> dict[str, str]:
    """Run :data:`COMMANDS` in ``workdir``; the digest of every file written
    there, reports by their reproducible text."""
    here = os.getcwd()
    os.chdir(workdir)
    try:
        for command in COMMANDS:
            assert cli.main(command.split()) == 0, command
        out = {}
        for name in sorted(os.listdir(".")):
            if name.endswith(".json"):
                continue  # the report's mirror carries its timings
            with open(name, "rb") as fh:
                data = fh.read()
            if name.endswith(".report"):
                data = data.split(b"[timings]\n")[0]
            out[name] = _sha(data)
        return out
    finally:
        os.chdir(here)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    return path, run_commands(path)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_keeps_its_bytes(workdir, name):
    _, digests = workdir
    assert digests.get(name) == GOLDEN[name]


def test_every_output_is_pinned(workdir):
    _, digests = workdir
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("name", ["run1.spanner", "run3.spanner", "run2.completion"])
def test_reloaded_file_saves_the_same_bytes(workdir, tmp_path, name):
    path, _ = workdir
    again = str(tmp_path / name)
    if name.endswith(".spanner"):
        save_spanner(load_spanner(str(path / name), 0.25), again)
    else:
        save_completion(load_completion(str(path / name)), again)
    assert (path / name).read_bytes() == open(again, "rb").read()
