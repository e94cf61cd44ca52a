"""The file comparison of the output check, tools/same_outputs.py."""

import importlib.util
import os

import pytest

TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "same_outputs.py"
)

MANIFEST = (
    b'{\n  "format": "corrcs-manifest/2",\n  "points": [\n'
    b'    {\n      "mean_nmse": 0.25,\n      "method": "bpdn"\n    }\n  ]\n}\n'
)


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare


def test_equal_files_read_equal(compare):
    assert compare(MANIFEST, MANIFEST, is_json=True) == "equal"
    assert compare(b"n,mean_nmse\n1,0.25\n", b"n,mean_nmse\n1,0.25\n") == "equal"


def test_a_moved_number_reads_as_its_relative_difference(compare):
    moved = MANIFEST.replace(b"0.25", b"0.2")
    assert compare(MANIFEST, moved, is_json=True) == "max relative difference 0.2"
    assert compare(b"1,0.25\n", b"1,0.2\n") == "max relative difference 0.2"


def test_a_changed_string_reads_as_text_not_as_a_number(compare):
    # the manifest format string ends in a digit; it is text all the same
    changed = MANIFEST.replace(b"manifest/2", b"manifest/1")
    assert compare(MANIFEST, changed, is_json=True) == "text differs"
