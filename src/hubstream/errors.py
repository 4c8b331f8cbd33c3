"""Exception types shared across the package."""

from __future__ import annotations


class HubStreamError(Exception):
    """Base class for all hubstream errors."""


# --- sensor self-description documents ---------------------------------


class EmptySchema(HubStreamError):
    """A hub description needs at least one sensor field."""


class DuplicateField(HubStreamError):
    """Sensor field names must be unique within one document."""


class BadIdentifier(HubStreamError):
    """Identifier does not match ``[a-z][a-z0-9_]{0,63}``."""


class MalformedDocument(HubStreamError):
    """Input is not a well-formed hub description document."""


class UnknownVersion(HubStreamError):
    """Document declares a format version this build does not speak."""


class SchemaViolation(HubStreamError):
    """Well-formed document violating the schema (bad type keyword,
    duplicate name, unknown element or attribute, ...)."""


# --- wrapper plans, repository, lifecycle -------------------------------


class RepositoryIO(HubStreamError):
    """Plan store could not be read or written."""


class IllegalTransition(HubStreamError):
    """Lifecycle event not legal in the current state."""

    def __init__(self, from_state: str, event: str):
        super().__init__(f"event {event!r} illegal in state {from_state}")
        self.from_state = from_state
        self.event = event


class FrameTooShort(HubStreamError):
    """Frame ends before the layout is fully decoded."""


class TypeTagMismatch(HubStreamError):
    """Presence tag byte is neither 0x00 nor 0x01."""


class TrailingBytes(HubStreamError):
    """Frame carries bytes beyond the last declared field."""


class InvalidText(HubStreamError):
    """A STRING field's bytes are not valid UTF-8."""


class SequenceRegression(HubStreamError):
    """Sequence number fell behind the reordering window."""


# --- virtual sensor definitions -----------------------------------------


class NameCollision(HubStreamError):
    """A live virtual sensor definition already exists for this hub."""


# --- middleware server ---------------------------------------------------


class NoFreePort(HubStreamError):
    """Data port range exhausted."""


class UnknownHub(HubStreamError):
    """Status query names a hub with no session."""


# --- hub ------------------------------------------------------------------


class DuplicatePlugin(HubStreamError):
    """A plugin with this id is already registered."""


class UnknownPlugin(HubStreamError):
    """No plugin registered under this id."""


class ServerUnreachable(HubStreamError):
    """Middleware control endpoint could not be reached."""


class RegistrationRefused(HubStreamError):
    """Server answered registration with a NACK."""

    def __init__(self, code: int, message: str):
        super().__init__(f"registration refused (code {code}): {message}")
        self.code = code
        self.message = message


class TypeMismatch(HubStreamError):
    """Value does not match the declared field type."""


# --- simulated sensors ----------------------------------------------------


class BadSpec(HubStreamError):
    """Simulated sensor definition is invalid."""
