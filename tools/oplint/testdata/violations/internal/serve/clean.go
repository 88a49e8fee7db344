package serve

// CallHook and refreshLocked stay deleted; naming them here is no violation.

var message = "null dereference in a comment-free literal outside the engines"
