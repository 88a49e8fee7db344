// Package cost is the deleted cycle model.
package cost
