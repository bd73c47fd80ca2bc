"""A frontend for the class-hierarchy subset of C++."""

from repro._lazy import export_lazily

export_lazily(
    __name__,
    {
        "repro.frontend.cpp_ast": (
            "AccessOp",
            "BaseSpecifier",
            "ClassDecl",
            "FunctionDef",
            "MemberAccess",
            "MemberDecl",
            "TranslationUnit",
            "VarDecl",
        ),
        "repro.frontend.errors": (
            "Diagnostic",
            "DiagnosticBag",
            "ParseError",
            "SemanticError",
            "Severity",
        ),
        "repro.frontend.lexer": ("Token", "TokenKind", "tokenize"),
        "repro.frontend.parser": ("Parser", "parse"),
        "repro.frontend.sema": (
            "IncrementalSema",
            "Program",
            "ResolvedAccess",
            "analyze",
            "analyze_or_raise",
        ),
        "repro.frontend.source": ("SourceLocation", "caret_snippet"),
    },
)

__all__ = [
    "AccessOp",
    "BaseSpecifier",
    "ClassDecl",
    "Diagnostic",
    "DiagnosticBag",
    "FunctionDef",
    "IncrementalSema",
    "MemberAccess",
    "MemberDecl",
    "ParseError",
    "Parser",
    "Program",
    "ResolvedAccess",
    "SemanticError",
    "Severity",
    "SourceLocation",
    "Token",
    "TokenKind",
    "TranslationUnit",
    "VarDecl",
    "analyze",
    "analyze_or_raise",
    "caret_snippet",
    "parse",
    "tokenize",
]
