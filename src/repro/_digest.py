"""SHA-256 without OpenSSL: the one hash constructor under ``src/``.

``hashlib`` maps OpenSSL, a few megabytes of resident memory in every process
that imports it.  Like ``random.py`` for ``sha512``, this takes the built-in
``_sha2`` (3.12+) or ``_sha256`` module first and ``hashlib`` only as a last
resort; run-journal keys and trace digests hash through :data:`sha256`.
"""

try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter built without the lean modules
        from hashlib import sha256

__all__ = ["sha256"]
