"""The shared REPRO_SIM_* boolean-toggle semantics.

Historically every toggle tested ``VAR in os.environ`` (or bare
``os.environ.get``), so ``VAR=0`` and ``VAR=false`` *enabled* the toggle —
the opposite of what anyone writing ``REPRO_SIM_NO_FASTPATH=0`` meant.
:func:`repro.common.envflag.env_flag` centralizes the fix; this file pins
the value matrix and that the two ``REPRO_SIM_NO_*`` gates actually
route through it.
"""

import pytest

from repro.common import FALSE_WORDS, env_flag
from repro.sim.fastpath import FASTPATH_ENV, fastpath_enabled
from repro.sim.nativepath import NO_NATIVE_ENV, native_enabled

TRUTHY = ["1", "true", "yes", "on", "TRUE", " 1 ", "anything", "2", "force"]
FALSY = ["", "0", "false", "no", "off", "False", "NO", " OFF ", "  "]


class TestEnvFlag:
    @pytest.mark.parametrize("value", TRUTHY)
    def test_truthy_values(self, value):
        assert env_flag("X", environ={"X": value}) is True

    @pytest.mark.parametrize("value", FALSY)
    def test_falsy_values(self, value):
        assert env_flag("X", environ={"X": value}) is False

    def test_unset_is_false(self):
        assert env_flag("X", environ={}) is False

    def test_reads_process_environment_by_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAG", "1")
        assert env_flag("REPRO_TEST_FLAG") is True
        monkeypatch.setenv("REPRO_TEST_FLAG", "0")
        assert env_flag("REPRO_TEST_FLAG") is False
        monkeypatch.delenv("REPRO_TEST_FLAG")
        assert env_flag("REPRO_TEST_FLAG") is False

    def test_false_words_are_the_documented_set(self):
        assert FALSE_WORDS == frozenset({"", "0", "false", "no", "off"})


class TestFastpathGate:
    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv(FASTPATH_ENV, "1")
        assert fastpath_enabled(True) is True
        monkeypatch.delenv(FASTPATH_ENV)
        assert fastpath_enabled(False) is False

    @pytest.mark.parametrize("value", FALSY)
    def test_falsy_env_leaves_fastpath_on(self, value, monkeypatch):
        # The original bug: REPRO_SIM_NO_FASTPATH=0 disabled the fast path.
        monkeypatch.setenv(FASTPATH_ENV, value)
        assert fastpath_enabled() is True

    @pytest.mark.parametrize("value", TRUTHY)
    def test_truthy_env_disables_fastpath(self, value, monkeypatch):
        monkeypatch.setenv(FASTPATH_ENV, value)
        assert fastpath_enabled() is False


class TestNativeGate:
    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv(NO_NATIVE_ENV, "1")
        assert native_enabled(True) is True
        monkeypatch.delenv(NO_NATIVE_ENV)
        assert native_enabled(False) is False

    @pytest.mark.parametrize("value", FALSY)
    def test_falsy_env_leaves_native_on(self, value, monkeypatch):
        monkeypatch.setenv(NO_NATIVE_ENV, value)
        assert native_enabled() is True

    @pytest.mark.parametrize("value", TRUTHY)
    def test_truthy_env_disables_native(self, value, monkeypatch):
        monkeypatch.setenv(NO_NATIVE_ENV, value)
        assert native_enabled() is False

