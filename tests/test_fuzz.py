"""Seeded fuzzing of the .fischer and .gens readers through `matsuo2 space`.

Each case applies one to three random edits (drop, copy or swap a line,
replace a token, insert or delete a character) to the text of a catalog
space or of a preset.  A case whose header declares a number above 12 is
skipped, so every case stays small.  The command must exit 0 or 2, never 1,
and an exit 2 prints an `error:` line.  `cli.main` turns only ValueError
(and OSError) into exit 2, so any other exception from a reader escapes and
fails the case.
"""

import random

from matsuo2 import cli, fischer, transposition

N_CASES = 150
_TOKENS = ("0", "1", "2", "3", "5", "12", "-1", "x", "()", "(1 2)", "(", ")",
           "[", "]", "|", ",", "#", "seed", "label", "fischer", "perm",
           "affineperm", "affinemat-gf4", "sumzero", "")
_CHARS = "0123456789 ()[]|,-#x"


def _mutate(rng, text):
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        op = rng.randrange(6)
        if op == 0 and len(lines) > 1:
            del lines[i]
        elif op == 1:
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:
            parts = lines[i].split(" ")
            parts[rng.randrange(len(parts))] = rng.choice(_TOKENS)
            lines[i] = " ".join(parts)
        else:
            k = rng.randrange(len(lines[i]) + 1)
            if op == 4:
                lines[i] = lines[i][:k] + rng.choice(_CHARS) + lines[i][k:]
            else:
                lines[i] = lines[i][:k] + lines[i][k + 1:]
    return "\n".join(lines) + "\n"


def _small_header(text):
    """True unless the first content line holds an integer above 12."""
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        for token in stripped.split():
            try:
                if int(token) > 12:
                    return False
            except ValueError:
                pass
        return True
    return True


def _fuzz(capsys, tmp_path, sources, suffix, seed):
    rng = random.Random(seed)
    path = tmp_path / f"case{suffix}"
    seen = set()
    while len(seen) < N_CASES:
        text = _mutate(rng, rng.choice(sources))
        if text in seen or not _small_header(text):
            continue
        seen.add(text)
        path.write_text(text)
        code = cli.main(["space", "--space", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 2), text
        assert (code == 2) == err.startswith("error: "), text


def test_fuzzed_fischer_files_exit_0_or_2(spaces, capsys, tmp_path):
    sources = [fischer.space_to_text(sp) for sp in spaces.values() if sp.n_points <= 12]
    _fuzz(capsys, tmp_path, sources, ".fischer", 2026)


def test_fuzzed_gens_files_exit_0_or_2(capsys, tmp_path):
    sources = [transposition.gens_to_text(*transposition.preset(name))
               for name in transposition.PRESET_NAMES]
    _fuzz(capsys, tmp_path, sources, ".gens", 2027)
