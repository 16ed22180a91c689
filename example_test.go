package cinderella_test

import (
	"fmt"
	"sort"

	"cinderella"
)

// Example shows the minimal workflow: open a table, insert irregular
// documents, and query by attribute with partition pruning.
func Example() {
	tbl := cinderella.Open(cinderella.Config{Weight: 0.2, PartitionSizeLimit: 1000})

	tbl.Insert(cinderella.Doc{"name": "Canon S120", "aperture": 2.0})
	tbl.Insert(cinderella.Doc{"name": "WD4000FYYZ", "rotation": 7200})
	tbl.Insert(cinderella.Doc{"name": "Sony SLT-A99", "aperture": 2.8})

	var names []string
	for _, r := range tbl.Query("aperture") {
		names = append(names, r.Doc["name"].(string))
	}
	sort.Strings(names)
	fmt.Println(names)
	// Output: [Canon S120 Sony SLT-A99]
}

// ExampleTable_QueryWhere demonstrates a value predicate: partitions
// without the attribute are pruned, the rest are filtered by value.
func ExampleTable_QueryWhere() {
	tbl := cinderella.Open(cinderella.Config{})
	tbl.Insert(cinderella.Doc{"sku": "a", "price": 19.99})
	tbl.Insert(cinderella.Doc{"sku": "b", "price": 149.00})
	tbl.Insert(cinderella.Doc{"sku": "c", "price": 99.50})

	rows, _ := tbl.QueryWhere(cinderella.Where("price", "<", 100.0))
	fmt.Println(len(rows), "cheap products")
	// Output: 2 cheap products
}

// ExampleTable_QueryWithReport shows how to observe partition pruning.
func ExampleTable_QueryWithReport() {
	tbl := cinderella.Open(cinderella.Config{Weight: 0.2, PartitionSizeLimit: 100})
	for i := 0; i < 10; i++ {
		tbl.Insert(cinderella.Doc{"camera_sensor": i})
		tbl.Insert(cinderella.Doc{"disk_rpm": i})
	}
	_, rep := tbl.QueryWithReport("disk_rpm")
	fmt.Printf("touched %d of %d partitions\n", rep.PartitionsTouched, rep.PartitionsTotal)
	// Output: touched 1 of 2 partitions
}
