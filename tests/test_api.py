"""The package's top-level names equal the README's "Python API" list."""

import importlib
import pathlib
import re

import sphere_reg

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_api():
    """(module, name) for every name the README's "Python API" bullets list."""
    section = README.read_text().split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    listed = []
    for bullet in re.findall(r"^\* (.*?)(?=^\S|\Z)", section, re.M | re.S):
        module, names = bullet.split(":", 1)
        listed += [(module, name) for name in re.findall(r"`(\w+)`", names)]
    return listed


def test_all_equals_the_readme_list():
    names = [name for _, name in readme_api()]
    assert len(names) == len(set(names)) == 32
    assert sorted(names) == sorted(sphere_reg.__all__)


def test_each_name_is_defined_in_its_listed_module():
    for module, name in readme_api():
        value = getattr(sphere_reg, name)
        assert getattr(importlib.import_module(f"sphere_reg.{module}"), name) is value
        assert getattr(value, "__module__", f"sphere_reg.{module}") == f"sphere_reg.{module}"
