"""The one way a config section checks its values."""


def check_fields(owner, rules):
    """Raise ValueError("<field> <rule>, got <value>") for the first of the
    (field, ok, rule) triples whose ok is false.  The config loader puts
    the section's path in front, so the message names the full key."""
    for name, ok, rule in rules:
        if not ok:
            raise ValueError(f"{name} {rule}, got {getattr(owner, name)!r}")
