"""The JSON schema every run report (``RunReport.to_json``) satisfies:
{spec, checks[], artifacts[], timing}, each check a name, a pass/fail
status and a numeric or null residual."""

REPORT_SCHEMA = {
    "type": "object",
    "required": ["spec", "checks", "artifacts", "timing"],
    "additionalProperties": False,
    "properties": {
        "spec": {"type": "object"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "status", "residual"],
                "additionalProperties": True,
                "properties": {
                    "name": {"type": "string"},
                    "status": {"enum": ["pass", "fail"]},
                    "residual": {"type": ["number", "null"]},
                },
            },
        },
        "artifacts": {"type": "array", "items": {"type": "string"}},
        "timing": {"type": ["number", "null"]},
    },
}
